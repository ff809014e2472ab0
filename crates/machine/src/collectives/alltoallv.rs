//! Many-to-many personalized communication.
//!
//! The redistribution stage of PACK/UNPACK needs every processor to send a
//! different message to (potentially) every other processor. The paper uses
//! the *linear permutation* scheduling algorithm [9] with active messages:
//! in round `k = 1 .. P-1`, processor `r` sends to `(r + k) mod P` and
//! receives from `(r - k) mod P`, so every round is a perfect permutation
//! and no node is hit by two senders at once.
//!
//! Alternative schedules are provided for the scheduling-algorithm
//! comparison the paper defers to its technical report [1]: a naive push,
//! and the pairwise-exchange (XOR) schedule classically used on hypercubes.
//! Under the contention-free two-level model of Section 2 the schedules
//! cost nearly the same — which is itself the model's point; on a real
//! network the permutation schedules avoid node contention.
//!
//! An empty slot is not sent. On the CM-5 a silent pair simply exchanges no
//! active message and the control network tells everyone when they are
//! done; here the pair population is learned by one uncharged control-plane
//! collective ([`A2aPlan::exchange`], `2(P−1)` frames) and every exchange —
//! one-shot or cached — then runs the same planned rounds over the
//! populated pairs only (DESIGN.md §17).

use crate::message::{Packet, Payload};
use crate::pool::Reusable;
use crate::proc::{tags, Group, Proc};

/// Message schedule for [`alltoallv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum A2aSchedule {
    /// Linear permutation [9]: round `k` pairs `r → (r+k) mod P`.
    #[default]
    LinearPermutation,
    /// Send everything immediately in rank order, then receive in rank order.
    NaivePush,
    /// Pairwise exchange: round `k` pairs `r ↔ r XOR k`. A perfect matching
    /// every round when `P` is a power of two (the classic hypercube
    /// schedule); for other `P` the rounds that map out of range fall back
    /// to the linear-permutation pairing.
    PairwiseExchange,
}

/// Exchange `sends[j]` (destined for group rank `j`) among all members;
/// returns the received payloads indexed by source rank. `recv[my_rank]` is
/// the self-message, moved without charge (the paper's implementation skips
/// the local copy).
///
/// Works for any [`Payload`] (plain element vectors, or structured message
/// formats like the compact message scheme's segment stream). **A slot
/// with zero wire words is not transmitted and arrives as `P::default()`.**
/// A dense-vector adapter over [`alltoallv_sparse`]: the populated slots go
/// in as a peer list, and the received list is spread back over `P`
/// defaults. A processor with nothing to send or receive leaves with its
/// clock untouched.
///
/// # Panics
/// Panics if `sends.len() != group.size()`.
pub fn alltoallv<P: Payload + Default>(
    proc: &mut Proc,
    group: &Group,
    sends: Vec<P>,
    schedule: A2aSchedule,
) -> Vec<P> {
    let n = sends.len();
    let sends = populated(group, sends, |_, s| s.wire_words() > 0);
    spread(n, alltoallv_sparse(proc, group, sends, schedule))
}

/// The dense slots that travel, as an ascending peer list: those `keep`
/// selects, plus this rank's own (moved, never sent).
fn populated<P>(group: &Group, sends: Vec<P>, keep: impl Fn(usize, &P) -> bool) -> Vec<(u32, P)> {
    assert_eq!(
        sends.len(),
        group.size(),
        "one send buffer per group member required"
    );
    let me = group.my_rank();
    let slots = sends.into_iter().enumerate();
    let kept = slots.filter(|(j, s)| *j == me || keep(*j, s));
    kept.map(|(j, s)| (j as u32, s)).collect()
}

/// A received peer list as a dense vector: `P::default()` where no message
/// came.
fn spread<P: Default>(n: usize, recvs: Vec<(u32, P)>) -> Vec<P> {
    let mut dense: Vec<P> = (0..n).map(|_| P::default()).collect();
    for (src, data) in recvs {
        dense[src as usize] = data;
    }
    dense
}

/// The many-to-many over peer lists: `sends` holds `(group rank, payload)`
/// ascending by rank — every entry is transmitted (so each must carry wire
/// words), bar one for this rank itself, which is moved without charge —
/// and the result lists `(source rank, payload)` ascending the same way.
/// Work and memory are proportional to the populated peers plus the
/// `⌈P/64⌉`-word flag row of [`A2aPlan::exchange`], which tells every member
/// whom to expect.
pub fn alltoallv_sparse<P: Payload + Default>(
    proc: &mut Proc,
    group: &Group,
    sends: Vec<(u32, P)>,
    schedule: A2aSchedule,
) -> Vec<(u32, P)> {
    let to = sends.iter().map(|s| s.0).collect();
    let plan = A2aPlan::exchange(proc, group, to);
    sparse_planned(proc, group, sends, &plan, schedule)
}

/// Which peers actually exchange data in a many-to-many, as sorted lists of
/// group ranks: this processor sends a message to every rank in `to` and
/// receives one from every rank in `from`. A plain [`alltoallv`] derives
/// it per call; a cached PACK/UNPACK plan captures it once so that every
/// execute runs [`alltoallv_pooled`] directly. This rank itself may appear
/// in both (its slot is moved, never sent); the rounds skip it.
///
/// The lists must be *pairwise consistent* across the group: `j ∈ from`
/// here iff `my_rank ∈ to` on rank `j`, or a planned exchange deadlocks
/// waiting for a message that is never sent. [`A2aPlan::exchange`]
/// establishes that consistency collectively; [`A2aPlan::from_peers`] and
/// [`A2aPlan::from_flags`] trust the caller (for protocols where both
/// directions are locally known, e.g. a request/reply pattern replying only
/// to actual requesters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct A2aPlan {
    /// Size of the group the lists index into.
    n: usize,
    to: Vec<u32>,
    from: Vec<u32>,
}

impl A2aPlan {
    /// Build from ascending peer lists the caller already knows in both
    /// directions, over a group of `n`.
    pub fn from_peers(n: usize, to: Vec<u32>, from: Vec<u32>) -> A2aPlan {
        for list in [&to, &from] {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "peers must ascend");
            assert!(list.last().is_none_or(|&p| (p as usize) < n), "peer ≥ n");
        }
        A2aPlan { n, to, from }
    }

    /// [`A2aPlan::from_peers`] from one flag per group member.
    pub fn from_flags(to: Vec<bool>, from: Vec<bool>) -> A2aPlan {
        assert_eq!(to.len(), from.len(), "direction flags must cover the group");
        let set = |flags: Vec<bool>| (0u32..).zip(flags).filter(|f| f.1).map(|f| f.0);
        A2aPlan::from_peers(to.len(), set(to).collect(), set(from).collect())
    }

    /// The ranks that send to this rank, ascending.
    pub fn from(&self) -> &[u32] {
        &self.from
    }

    /// Bytes the two peer lists retain.
    pub fn mem_bytes(&self) -> u64 {
        4 * (self.to.len() + self.from.len()) as u64
    }

    /// Whether this rank sends to `rank` (its own included: a staged self
    /// slot).
    pub fn sends_to(&self, rank: usize) -> bool {
        self.to.binary_search(&(rank as u32)).is_ok()
    }

    /// Collective: derive the receive list by transposing the group's
    /// `P × P` send-flag matrix on the control plane. Every member sends its
    /// `to` list as a `⌈P/64⌉`-word bitset row to group rank 0, which returns
    /// each member its `from` column — `2(P−1)` frames where an all-pairs
    /// flag round moved `P(P−1)`. Rows and columns are packed from and
    /// unpacked to peer lists directly; only rank 0 ever holds more than one.
    ///
    /// The traffic models the CM-5 control network, exactly like
    /// [`Proc::clock_sync_max`]: uncharged, never fault-injected, invisible
    /// to events and metrics (bar `msg.frames`), and **clock-neutral** — no
    /// member's simulated clock moves, so learning the pair population
    /// imposes no synchronisation the data rounds do not themselves need.
    /// Under crash recovery the frames are sequenced and logged like all
    /// control traffic.
    pub fn exchange(proc: &mut Proc, group: &Group, to: Vec<u32>) -> Self {
        let n = group.size();
        let from = proc.with_stage("a2a.flags", |proc| {
            if n == 1 {
                return to.clone();
            }
            let row = pack_bits(&to, n);
            let root = group.id_of(0);
            if group.my_rank() != 0 {
                proc.send_uncharged(root, tags::A2A_FLAGS, row);
                let col: Vec<u64> = proc.recv_uncharged(root, tags::A2A_FLAGS);
                return set_bits(&col).collect();
            }
            // Rank 0: scatter each row's set bits into the columns as it
            // arrives (work proportional to the populated pairs).
            let mut cols = vec![vec![0u64; row.len()]; n];
            scatter_row(&mut cols, 0, &row);
            for i in 1..n {
                let row_i: Vec<u64> = proc.recv_uncharged(group.id_of(i), tags::A2A_FLAGS);
                scatter_row(&mut cols, i, &row_i);
            }
            let mut cols = cols.into_iter();
            let mine = cols.next().expect("group is non-empty");
            for (j, col) in cols.enumerate() {
                proc.send_uncharged(group.id_of(j + 1), tags::A2A_FLAGS, col);
            }
            set_bits(&mine).collect()
        });
        A2aPlan::from_peers(n, to, from)
    }
}

/// Pack a peer list into a little-endian bitset over `n` ranks, 64 per word.
fn pack_bits(peers: &[u32], n: usize) -> Vec<u64> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for &j in peers {
        words[j as usize / 64] |= 1 << (j % 64);
    }
    words
}

/// The set bits of a [`pack_bits`] bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let j = w as u32 * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                j
            })
        })
    })
}

/// Transpose one row of the flag matrix: set bit `i` of column `j` for
/// every set bit `j` of `row`.
fn scatter_row(cols: &mut [Vec<u64>], i: usize, row: &[u64]) {
    for j in set_bits(row) {
        cols[j as usize][i / 64] |= 1 << (i % 64);
    }
}

/// The one round engine behind every many-to-many: walk `schedule`'s
/// rounds for group rank `me` of `n`, calling `send(dst)` / `recv(src)` for
/// the populated directions only — in exactly the order a walk over all
/// `n − 1` rounds would reach them, but by merging the plan's two sorted
/// peer lists, so a round whose pairing moves nothing costs nothing. (`C` is
/// the processor; the tests record the call order in a plain vector.)
fn planned_rounds<C>(
    proc: &mut C,
    n: usize,
    me: usize,
    plan: &A2aPlan,
    schedule: A2aSchedule,
    mut send: impl FnMut(&mut C, usize),
    mut recv: impl FnMut(&mut C, usize),
) {
    assert_eq!(plan.n, n, "plan must cover the group");
    if schedule == A2aSchedule::PairwiseExchange && n.is_power_of_two() {
        // Round `k` pairs `me ↔ me XOR k`.
        return xor_rounds(proc, me, n / 2, &plan.to, &plan.from, &mut send, &mut recv);
    }
    // Round `k` pairs `me → (me + k) mod n` with `(me − k) mod n → me`: the
    // destinations are `to` read upwards from `me`, the sources `from` read
    // downwards from it, both wrapping (also the pairwise fallback).
    let (me32, n32) = (me as u32, n as u32);
    let split = |list: &[u32]| {
        let lo = list.partition_point(|&p| p < me32);
        (lo, lo + usize::from(list.get(lo) == Some(&me32)))
    };
    let ((tl, th), (fl, fh)) = (split(&plan.to), split(&plan.from));
    let mut dsts = plan.to[th..].iter().chain(&plan.to[..tl]).peekable();
    let mut srcs = (plan.from[..fl].iter().rev())
        .chain(plan.from[fh..].iter().rev())
        .peekable();
    if schedule == A2aSchedule::NaivePush {
        dsts.for_each(|&dst| send(proc, dst as usize));
        srcs.for_each(|&src| recv(proc, src as usize));
        return;
    }
    loop {
        let k_send = dsts.peek().map(|&&dst| (dst + n32 - me32) % n32);
        let k_recv = srcs.peek().map(|&&src| (me32 + n32 - src) % n32);
        let Some(k) = k_send.into_iter().chain(k_recv).min() else {
            return;
        };
        if k_send == Some(k) {
            send(proc, *dsts.next().expect("peeked") as usize);
        }
        if k_recv == Some(k) {
            recv(proc, *srcs.next().expect("peeked") as usize);
        }
    }
}

/// The XOR matching's rounds over sorted peer lists. `to` and `from` hold
/// the peers of one aligned block of `2·half` ranks; the block's lower half
/// differs from `me` in the `half` bit or it does not, and whichever half
/// does not comes first in `k = me XOR peer` order — recursively, down to
/// single ranks, with no scratch and no sort.
fn xor_rounds<C>(
    proc: &mut C,
    me: usize,
    half: usize,
    to: &[u32],
    from: &[u32],
    send: &mut impl FnMut(&mut C, usize),
    recv: &mut impl FnMut(&mut C, usize),
) {
    if to.is_empty() && from.is_empty() {
        return;
    }
    if half == 0 {
        // One rank: `me` itself (round 0, which does not exist) or a partner.
        if let Some(&dst) = to.first().filter(|&&p| p as usize != me) {
            send(proc, dst as usize);
        }
        if let Some(&src) = from.first().filter(|&&p| p as usize != me) {
            recv(proc, src as usize);
        }
        return;
    }
    let peer0 = to.first().or(from.first()).expect("not both empty");
    let mid = (*peer0 as usize & !(2 * half - 1)) + half;
    let cut = |list: &[u32]| list.partition_point(|&p| (p as usize) < mid);
    let ((t_lo, t_hi), (f_lo, f_hi)) = (to.split_at(cut(to)), from.split_at(cut(from)));
    if me & half == 0 {
        xor_rounds(proc, me, half / 2, t_lo, f_lo, send, recv);
        xor_rounds(proc, me, half / 2, t_hi, f_hi, send, recv);
    } else {
        xor_rounds(proc, me, half / 2, t_hi, f_hi, send, recv);
        xor_rounds(proc, me, half / 2, t_lo, f_lo, send, recv);
    }
}

/// The boxed data rounds: `sends` holds one entry per rank on `plan.to`
/// (plus, optionally, this rank's own), ascending; returns one entry per
/// rank on `plan.from` (plus the moved self entry), ascending.
fn sparse_planned<P: Payload + Default>(
    proc: &mut Proc,
    group: &Group,
    mut sends: Vec<(u32, P)>,
    plan: &A2aPlan,
    schedule: A2aSchedule,
) -> Vec<(u32, P)> {
    let me = group.my_rank();
    let find = |list: &[(u32, P)], rank: usize| {
        list.binary_search_by_key(&(rank as u32), |e| e.0)
            .expect("an exchanged rank is on the plan's list")
    };
    let mut recvs: Vec<(u32, P)> = plan.from.iter().map(|&src| (src, P::default())).collect();
    if let Ok(at) = sends.binary_search_by_key(&(me as u32), |e| e.0) {
        let own = std::mem::take(&mut sends[at].1);
        match recvs.binary_search_by_key(&(me as u32), |e| e.0) {
            Ok(slot) => recvs[slot].1 = own,
            Err(slot) => recvs.insert(slot, (me as u32, own)),
        }
    }
    proc.with_stage("a2a.planned", |proc| {
        planned_rounds(
            proc,
            group.size(),
            me,
            plan,
            schedule,
            |proc, dst| {
                let at = find(&sends, dst);
                let data = std::mem::take(&mut sends[at].1);
                proc.send(group.id_of(dst), tags::ALLTOALL, data);
            },
            |proc, src| {
                let at = find(&recvs, src);
                recvs[at].1 = proc.recv(group.id_of(src), tags::ALLTOALL);
            },
        )
    });
    recvs
}

/// The planned rounds over pooled buffers: the allocation-free steady
/// state of a cached plan's execute loop.
///
/// The caller has already checked out, filled, and stashed the pool slot
/// for every destination on `plan.to()` — including its own rank, whose
/// slot is never sent and is decoded in place (the uncharged self-move of
/// the boxed variants). Received messages land in `out` as raw
/// [`Packet`]s whose payload is the *sender's* `Arc<PoolSlot<B>>`; the
/// decoder downcasts, takes the staged buffer, and returns it with
/// [`crate::PoolSlot::put_back`] — which is what un-blocks the sender's next
/// checkout.
///
/// Always runs over the world communicator (group rank = processor id),
/// and shares the boxed rounds' engine and stage span: the simulated
/// accounting of a pooled execute is bit-identical to the boxed path (see
/// DESIGN.md §11).
pub fn alltoallv_pooled<B: Reusable>(
    proc: &mut Proc,
    plan: &A2aPlan,
    schedule: A2aSchedule,
    key: u64,
    out: &mut Vec<Packet>,
) {
    let (n, me) = (proc.nprocs(), proc.id());
    proc.wall_span("a2a.pooled", |proc| {
        proc.with_stage("a2a.planned", |proc| {
            planned_rounds(
                proc,
                n,
                me,
                plan,
                schedule,
                |proc, dst| {
                    let slot = proc.pool_current::<B>(key, dst);
                    proc.send_pooled(dst, tags::ALLTOALL, &slot);
                },
                // Wall attribution: each received packet's charged wire
                // words, so the profile reports the exchange's effective
                // receive bandwidth.
                |proc, src| {
                    let pkt = proc.recv_packet(src, tags::ALLTOALL);
                    proc.wall_bytes(pkt.words as u64 * 4);
                    out.push(pkt);
                },
            )
        });
    });
}

/// A bundle-carrying message for the two-phase schedule: each bundle is
/// tagged with a peer rank (the final destination in phase 1, the original
/// source in phase 2). Two header words per bundle on the wire.
struct Bundled<T> {
    bundles: Vec<(u32, Vec<T>)>,
}

impl<T> Default for Bundled<T> {
    fn default() -> Self {
        Bundled {
            bundles: Vec::new(),
        }
    }
}

impl<T: Wire> Clone for Bundled<T> {
    fn clone(&self) -> Self {
        Bundled {
            bundles: self.bundles.clone(),
        }
    }
}

impl<T: Wire> Payload for Bundled<T> {
    fn wire_words(&self) -> crate::cost::Words {
        self.bundles
            .iter()
            .map(|(_, v)| 2 + v.len() * T::WORDS)
            .sum()
    }

    fn clone_payload(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.clone())
    }
}

use crate::message::Wire;

/// Two-phase (row–column) schedule for *sparse* many-to-many exchanges.
///
/// Ranks are arranged on a `rows × cols` virtual grid (`cols = ⌈√P⌉`).
/// Phase 1 forwards each message to the row-mate sharing the destination's
/// column; phase 2 delivers within the column. Each processor pays at most
/// `≈ 2√P` message start-ups instead of `P-1`, at the price of moving every
/// element twice plus two header words per (source, destination) pair — the
/// classic trade for exchanges of many tiny messages ([9]'s all-to-many
/// family). For dense exchanges prefer [`alltoallv`].
///
/// Semantics match [`alltoallv`]: `sends[j]` goes to group rank `j`; the
/// result is indexed by original source rank.
pub fn alltoallv_two_phase<T: Wire>(
    proc: &mut Proc,
    group: &Group,
    mut sends: Vec<Vec<T>>,
    schedule: A2aSchedule,
) -> Vec<Vec<T>> {
    let n = group.size();
    assert_eq!(sends.len(), n, "one send buffer per group member required");
    let me = group.my_rank();
    let cols = (n as f64).sqrt().ceil() as usize;
    if cols <= 1 || n <= 3 {
        return alltoallv(proc, group, sends, schedule);
    }

    // Relay for traffic from `src`'s row toward `dst`: the processor in
    // src's row with dst's column, falling back to row 0 (always full) when
    // the ragged last row lacks that column.
    let relay_of = |src: usize, dst: usize| -> usize {
        let r = (src / cols) * cols + dst % cols;
        if r < n {
            r
        } else {
            dst % cols
        }
    };

    // Phase 1: bundle by relay. The self-slot skips both phases.
    let mut recvs: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    recvs[me] = std::mem::take(&mut sends[me]);
    let mut phase1: Vec<Bundled<T>> = (0..n).map(|_| Bundled::default()).collect();
    for (dst, payload) in sends.into_iter().enumerate() {
        if dst == me || payload.is_empty() {
            continue;
        }
        phase1[relay_of(me, dst)]
            .bundles
            .push((dst as u32, payload));
    }
    proc.marker("a2a.two_phase.relay");
    let relayed = alltoallv(proc, group, phase1, schedule);

    // Phase 2: regroup by final destination, tagging with the original
    // source. My own deliveries (I was the relay for me->dst? impossible:
    // dst==me was skipped; but src->me bundles can arrive here directly if
    // relay_of(src, me) == me).
    let mut phase2: Vec<Bundled<T>> = (0..n).map(|_| Bundled::default()).collect();
    for (src, msg) in relayed.into_iter().enumerate() {
        for (dst, items) in msg.bundles {
            let dst = dst as usize;
            if dst == me {
                recvs[src] = items;
            } else {
                phase2[dst].bundles.push((src as u32, items));
            }
        }
    }
    proc.marker("a2a.two_phase.deliver");
    let delivered = alltoallv(proc, group, phase2, schedule);
    for msg in delivered {
        for (src, items) in msg.bundles {
            recvs[src as usize] = items;
        }
    }
    recvs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::machine::Machine;
    use crate::topology::ProcGrid;

    /// The data rounds of [`alltoallv`] with the pair population known in
    /// advance: only pairs on the plan's lists exchange a message; slots off
    /// them come back as `P::default()`. The dense adapter over the same sparse
    /// rounds as [`alltoallv`].
    ///
    /// # Panics
    /// Panics if `sends.len()` or the plan disagree with the group size, or (in
    /// debug builds) if a send slot off the plan's `to` list carries wire words.
    fn alltoallv_planned<P: Payload + Default>(
        proc: &mut Proc,
        group: &Group,
        sends: Vec<P>,
        plan: &A2aPlan,
        schedule: A2aSchedule,
    ) -> Vec<P> {
        let n = sends.len();
        let sends = populated(group, sends, |j, s| {
            let listed = plan.sends_to(j);
            debug_assert!(
                listed || s.wire_words() == 0,
                "silent send slot carries data"
            );
            listed
        });
        spread(n, sparse_planned(proc, group, sends, plan, schedule))
    }

    fn run_exchange(p: usize, schedule: A2aSchedule) {
        let machine = Machine::new(ProcGrid::line(p), CostModel::zero());
        let out = machine.run(move |proc| {
            let g = proc.world();
            // Rank r sends [r*100 + j; r+j+1 elements] to rank j.
            let sends: Vec<Vec<i32>> = (0..p)
                .map(|j| vec![(proc.id() * 100 + j) as i32; proc.id() + j + 1])
                .collect();
            alltoallv(proc, &g, sends, schedule)
        });
        for (j, recvs) in out.results.iter().enumerate() {
            for (r, v) in recvs.iter().enumerate() {
                assert_eq!(v.len(), r + j + 1, "length from {r} to {j}");
                assert!(
                    v.iter().all(|&x| x == (r * 100 + j) as i32),
                    "content from {r} to {j}"
                );
            }
        }
    }

    #[test]
    fn linear_permutation_delivers_everything() {
        for p in [1, 2, 3, 5, 8] {
            run_exchange(p, A2aSchedule::LinearPermutation);
        }
    }

    #[test]
    fn naive_push_delivers_everything() {
        for p in [1, 2, 3, 5, 8] {
            run_exchange(p, A2aSchedule::NaivePush);
        }
    }

    #[test]
    fn pairwise_exchange_delivers_everything() {
        // Powers of two use the XOR matching; other sizes fall back.
        for p in [1, 2, 3, 4, 5, 8] {
            run_exchange(p, A2aSchedule::PairwiseExchange);
        }
    }

    #[test]
    fn two_phase_delivers_everything() {
        for p in [1, 2, 3, 4, 5, 7, 9, 16] {
            let machine = Machine::new(ProcGrid::line(p), CostModel::zero());
            let out = machine.run(move |proc| {
                let g = proc.world();
                let sends: Vec<Vec<i32>> = (0..p)
                    .map(|j| vec![(proc.id() * 100 + j) as i32; (proc.id() + j) % 3])
                    .collect();
                alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation)
            });
            for (j, recvs) in out.results.iter().enumerate() {
                for (r, v) in recvs.iter().enumerate() {
                    assert_eq!(v.len(), (r + j) % 3, "p={p} from {r} to {j}");
                    assert!(v.iter().all(|&x| x == (r * 100 + j) as i32));
                }
            }
        }
    }

    /// The point of two-phase: far fewer start-ups for all-pairs tiny
    /// messages, at ~2x the volume.
    #[test]
    fn two_phase_trades_volume_for_startups() {
        let p = 16usize;
        let run = |two_phase: bool| {
            let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
            let out = machine.run(move |proc| {
                let g = proc.world();
                let sends: Vec<Vec<i32>> = (0..p).map(|j| vec![j as i32]).collect();
                if two_phase {
                    alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation);
                } else {
                    alltoallv(proc, &g, sends, A2aSchedule::LinearPermutation);
                }
            });
            (
                out.total_startups(),
                out.total_words_sent(),
                out.max_time_ms(),
            )
        };
        let (s1, w1, t1) = run(false);
        let (s2, w2, t2) = run(true);
        assert!(
            s2 < s1 / 2,
            "two-phase startups {s2} should be well under direct {s1}"
        );
        assert!(w2 > w1, "two-phase volume {w2} must exceed direct {w1}");
        assert!(
            t2 < t1,
            "with 1-word messages, start-ups dominate: {t2} < {t1}"
        );
    }

    /// Planned exchanges deliver the same payloads as plain `alltoallv`
    /// over a sparse pattern (only ranks at even distance talk), for every
    /// schedule and an awkward mix of group sizes.
    #[test]
    fn planned_matches_unplanned_on_sparse_patterns() {
        for p in [1usize, 2, 3, 5, 8, 16] {
            for schedule in [
                A2aSchedule::LinearPermutation,
                A2aSchedule::NaivePush,
                A2aSchedule::PairwiseExchange,
            ] {
                let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
                let out = machine.run(move |proc| {
                    let g = proc.world();
                    let build = |me: usize| -> Vec<Vec<i32>> {
                        (0..p)
                            .map(|j| {
                                if (me + j).is_multiple_of(2) && me != j {
                                    vec![(me * 100 + j) as i32; me + 1]
                                } else {
                                    Vec::new()
                                }
                            })
                            .collect()
                    };
                    let to = (0..p as u32)
                        .filter(|&j| !build(proc.id())[j as usize].is_empty())
                        .collect();
                    let plan = A2aPlan::exchange(proc, &g, to);
                    let planned = alltoallv_planned(proc, &g, build(proc.id()), &plan, schedule);
                    let plain = alltoallv(proc, &g, build(proc.id()), schedule);
                    (planned, plain)
                });
                for (me, (planned, plain)) in out.results.iter().enumerate() {
                    assert_eq!(planned, plain, "p={p} {schedule:?} rank {me}");
                }
            }
        }
    }

    /// The flag transposition is free on the wire and the planned rounds
    /// move the populated pairs only.
    #[test]
    fn planned_exchange_skips_silent_pairs() {
        let p = 6usize;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5()).with_metrics(true);
        let out = machine.run(move |proc| {
            let g = proc.world();
            // Only 0 -> 1 carries data.
            let mut sends: Vec<Vec<i32>> = vec![Vec::new(); p];
            let mut to = Vec::new();
            if proc.id() == 0 {
                sends[1] = vec![7, 8, 9];
                to.push(1);
            }
            let plan = A2aPlan::exchange(proc, &g, to);
            assert_eq!(plan.from(), if proc.id() == 1 { &[0][..] } else { &[] });
            alltoallv_planned(proc, &g, sends, &plan, A2aSchedule::LinearPermutation)
        });
        assert_eq!(out.results[1][0], vec![7, 8, 9]);
        // Flag transposition: uncharged. Planned rounds: one 3-word
        // message. Every other pair stays silent.
        assert_eq!(out.total_words_sent(), 3);
    }

    #[test]
    fn from_flags_reply_pattern_needs_no_exchange() {
        // Request/reply: every rank requests from rank 0 only, so both
        // directions are locally known and no flag exchange is needed.
        let p = 4usize;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let g = proc.world();
            let me = proc.id();
            let to: Vec<bool> = (0..p).map(|j| me == 0 && j != 0).collect();
            let from: Vec<bool> = (0..p).map(|j| me != 0 && j == 0).collect();
            let plan = A2aPlan::from_flags(to, from);
            let sends: Vec<Vec<i32>> = (0..p)
                .map(|j| {
                    if me == 0 && j != 0 {
                        vec![j as i32 * 11]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            alltoallv_planned(proc, &g, sends, &plan, A2aSchedule::LinearPermutation)
        });
        for (me, recvs) in out.results.iter().enumerate().skip(1) {
            assert_eq!(recvs[0], vec![me as i32 * 11]);
        }
    }

    /// Zero-word skip edge case: an all-empty two-phase exchange moves
    /// nothing in either phase and charges nothing at all.
    #[test]
    fn two_phase_with_all_empty_sends() {
        for p in [4usize, 7, 16] {
            let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
            let out = machine.run(move |proc| {
                let g = proc.world();
                let sends: Vec<Vec<i32>> = vec![Vec::new(); p];
                alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation)
            });
            assert_eq!(out.total_words_sent(), 0, "p={p}");
            assert_eq!(out.total_startups(), 0, "p={p}");
            for recvs in &out.results {
                assert!(recvs.iter().all(Vec::is_empty));
            }
        }
    }

    /// Zero-word skip edge case: exactly one populated pair routes through
    /// one relay, so the two-phase words are exactly twice the bundle size
    /// (payload + 2 header words, moved twice) and everything else stays
    /// silent.
    #[test]
    fn two_phase_with_single_nonsilent_pair() {
        // p = 9 puts ranks on a 3×3 grid; for 2 → 4 the relay is rank 1
        // (row of 2, column of 4) — distinct from both endpoints.
        let p = 9usize;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let out = machine.run(move |proc| {
            let g = proc.world();
            let mut sends: Vec<Vec<i32>> = vec![Vec::new(); p];
            if proc.id() == 2 {
                sends[4] = vec![70, 71, 72];
            }
            alltoallv_two_phase(proc, &g, sends, A2aSchedule::LinearPermutation)
        });
        for (me, recvs) in out.results.iter().enumerate() {
            for (src, v) in recvs.iter().enumerate() {
                if (me, src) == (4, 2) {
                    assert_eq!(v, &vec![70, 71, 72]);
                } else {
                    assert!(v.is_empty(), "unexpected data {src} -> {me}");
                }
            }
        }
        // 3 payload words + 2 header words, relayed twice.
        assert_eq!(out.total_words_sent(), 10);
        assert_eq!(out.total_startups(), 2);
    }

    /// Send-flag matrices for the transposition tests: `flag(i, j)` is
    /// whether processor `i` sends to processor `j` (global ids).
    #[derive(Clone, Copy, Debug)]
    enum Flags {
        AllFalse,
        AllTrue,
        /// Exactly one pair, `a → b`.
        Single(usize, usize),
        /// About half the pairs, from a multiply-shift hash of `(i, j)`.
        Random(u64),
    }

    impl Flags {
        fn at(self, i: usize, j: usize) -> bool {
            match self {
                Flags::AllFalse => false,
                Flags::AllTrue => true,
                Flags::Single(a, b) => (i, j) == (a, b),
                Flags::Random(seed) => {
                    let x =
                        (seed ^ ((i as u64) << 32 | j as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    x >> 63 == 1
                }
            }
        }
    }

    /// `A2aPlan::exchange` over the group `pick` selects, on every
    /// processor of `machine`: each member must get back exactly its column
    /// of the transposed matrix, and nobody pays or waits for it.
    fn check_transposition(
        machine: &Machine,
        flags: Flags,
        recoverable: bool,
        pick: impl Fn(&Proc) -> Group + Sync,
    ) {
        let program = |proc: &mut Proc| {
            let g = pick(proc);
            let to = (0..g.size() as u32)
                .filter(|&j| flags.at(proc.id(), g.id_of(j as usize)))
                .collect();
            let plan = A2aPlan::exchange(proc, &g, to);
            (g, plan.from().to_vec())
        };
        let out = if recoverable {
            machine.run_recoverable(program)
        } else {
            machine.try_run(program)
        }
        .unwrap_or_else(|e| panic!("{flags:?} P={}: {e}", machine.nprocs()));
        for (me, (g, from)) in out.results.iter().enumerate() {
            let want: Vec<u32> = (0..g.size() as u32)
                .filter(|&j| flags.at(g.id_of(j as usize), me))
                .collect();
            assert_eq!(from, &want, "{flags:?} P={} proc {me}", machine.nprocs());
        }
        assert_eq!(out.total_words_sent(), 0, "{flags:?}");
        assert_eq!(out.total_startups(), 0, "{flags:?}");
        assert!(out.clocks.iter().all(|c| c.now_ns == 0.0), "{flags:?}");
    }

    /// The control-plane transposition against the transposed matrix: group
    /// sizes on both sides of the 64-bit word boundary, and the row and
    /// column communicators of a 3×4 grid (member ids ≠ ranks).
    #[test]
    fn exchange_transposes_the_flag_matrix() {
        for p in [1usize, 2, 3, 5, 8, 33, 65] {
            let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
            for flags in [
                Flags::AllFalse,
                Flags::AllTrue,
                Flags::Single(p / 2, p - 1),
                Flags::Random(p as u64),
            ] {
                check_transposition(&machine, flags, false, |proc| proc.world());
            }
        }
        let grid = Machine::new(ProcGrid::new(&[3, 4]), CostModel::cm5());
        for dim in 0..2 {
            for flags in [
                Flags::AllFalse,
                Flags::AllTrue,
                Flags::Single(1, 10),
                Flags::Single(4, 5),
                Flags::Random(7),
            ] {
                check_transposition(&grid, flags, false, |proc| proc.axis_group(dim));
            }
        }
    }

    /// Faults never reach the control plane of a plain run, and under crash
    /// recovery — where control frames are sequenced like everything else —
    /// the reliable transport hides them.
    #[test]
    fn exchange_is_exact_under_drop_dup_reorder() {
        let plan = crate::fault::FaultPlan::new(41)
            .with_drop(0.2)
            .with_duplicate(0.2)
            .with_reorder(0.2);
        for p in [2usize, 5, 33] {
            let machine =
                Machine::new(ProcGrid::line(p), CostModel::cm5()).with_faults(plan.clone());
            for recoverable in [false, true] {
                for flags in [Flags::AllTrue, Flags::Single(0, p - 1), Flags::Random(3)] {
                    check_transposition(&machine, flags, recoverable, |proc| proc.world());
                }
            }
        }
    }

    /// One call the round engine made.
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Step {
        Send(usize),
        Recv(usize),
    }

    /// The walk the engine replaced: every one of the `n − 1` rounds, one
    /// flag test per direction.
    fn dense_rounds(
        n: usize,
        me: usize,
        to: &[bool],
        from: &[bool],
        schedule: A2aSchedule,
    ) -> Vec<Step> {
        let mut steps = Vec::new();
        if schedule == A2aSchedule::NaivePush {
            let dsts = (1..n).map(|k| (me + k) % n).filter(|&d| to[d]);
            steps.extend(dsts.map(Step::Send));
            let srcs = (1..n).map(|k| (me + n - k) % n).filter(|&s| from[s]);
            steps.extend(srcs.map(Step::Recv));
            return steps;
        }
        let xor = schedule == A2aSchedule::PairwiseExchange && n.is_power_of_two();
        for k in 1..n {
            let (dst, src) = if xor {
                (me ^ k, me ^ k)
            } else {
                ((me + k) % n, (me + n - k) % n)
            };
            if to[dst] {
                steps.push(Step::Send(dst));
            }
            if from[src] {
                steps.push(Step::Recv(src));
            }
        }
        steps
    }

    proptest::proptest! {
        /// Merging the sorted peer lists reaches the populated pairs in
        /// exactly the order the all-rounds flag walk does — for every
        /// schedule, every rank, group sizes around the powers of two, and
        /// populations from empty to all pairs (self flags included: the
        /// rounds must skip them).
        #[test]
        fn peer_list_rounds_match_the_all_rounds_walk(
            n in proptest::sample::select(vec![1usize, 2, 3, 4, 5, 8, 16, 33, 64, 65]),
            density in proptest::sample::select(vec![0u64, 1, 8, 32, 64]),
            seed in 0u64..1000,
        ) {
            for schedule in ALL_SCHEDULES {
                for me in 0..n {
                    let bit = |dir: u64, j: usize| {
                        let x = seed ^ (dir << 40 | (me as u64) << 20 | j as u64);
                        x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58 < density
                    };
                    let to: Vec<bool> = (0..n).map(|j| bit(0, j)).collect();
                    let from: Vec<bool> = (0..n).map(|j| bit(1, j)).collect();
                    let plan = A2aPlan::from_flags(to.clone(), from.clone());
                    let mut steps = Vec::new();
                    planned_rounds(
                        &mut steps,
                        n,
                        me,
                        &plan,
                        schedule,
                        |steps, dst| steps.push(Step::Send(dst)),
                        |steps, src| steps.push(Step::Recv(src)),
                    );
                    proptest::prop_assert_eq!(
                        steps,
                        dense_rounds(n, me, &to, &from, schedule),
                        "{:?} n={} me={}", schedule, n, me
                    );
                }
            }
        }
    }

    const ALL_SCHEDULES: [A2aSchedule; 3] = [
        A2aSchedule::LinearPermutation,
        A2aSchedule::NaivePush,
        A2aSchedule::PairwiseExchange,
    ];

    /// No padding, no implicit barrier: with processor 3 a millisecond
    /// ahead and sending only to processor 2, processors 0 and 1 — who have
    /// no real traffic — leave the exchange with their clocks untouched.
    #[test]
    fn bystanders_keep_their_clocks() {
        let model = CostModel::cm5();
        for schedule in ALL_SCHEDULES {
            let out = Machine::new(ProcGrid::line(4), model).run(move |proc| {
                let g = proc.world();
                let mut sends: Vec<Vec<i32>> = vec![Vec::new(); 4];
                if proc.id() == 3 {
                    proc.clock().fast_forward(1e6);
                    sends[2] = vec![5, 6];
                }
                alltoallv(proc, &g, sends, schedule)
            });
            let sent = 1e6 + model.tau_ns + 2.0 * model.mu_ns;
            let clocks: Vec<f64> = out.clocks.iter().map(|c| c.now_ns).collect();
            assert_eq!(clocks, [0.0, 0.0, sent, sent], "{schedule:?}");
            assert_eq!(out.results[2][3], vec![5, 6]);
        }
    }

    /// A receiver ends at `max(own clock, arrivals of its real messages)`
    /// and nothing else: three senders at skewed clocks, one of them behind
    /// the receiver, and a silent bystander further ahead than all of them.
    #[test]
    fn receiver_waits_for_its_real_arrivals_only() {
        let model = CostModel::cm5();
        let entry = [250e3, 100e3, 200e3, 300e3, 900e3];
        for schedule in ALL_SCHEDULES {
            let out = Machine::new(ProcGrid::line(5), model).run(move |proc| {
                let g = proc.world();
                let t0 = entry[proc.id()];
                proc.clock().fast_forward(t0);
                let mut sends: Vec<Vec<i32>> = vec![Vec::new(); 5];
                if (1..=3).contains(&proc.id()) {
                    sends[0] = vec![proc.id() as i32; proc.id()];
                }
                alltoallv(proc, &g, sends, schedule)
            });
            let arrival = |i: usize| entry[i] + model.tau_ns + i as f64 * model.mu_ns;
            let clocks: Vec<f64> = out.clocks.iter().map(|c| c.now_ns).collect();
            let want = [arrival(3), arrival(1), arrival(2), arrival(3), entry[4]];
            assert_eq!(clocks, want, "{schedule:?}");
        }
    }

    /// The delivered contract: a slot with zero wire words is not
    /// transmitted and arrives as `P::default()`. An all-empty exchange
    /// therefore puts the `2(P−1)` frames of the flag transposition on the
    /// rings and not one data frame.
    #[test]
    fn zero_word_slots_are_not_sent_and_arrive_as_default() {
        let p = 4usize;
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5()).with_metrics(true);
        let out = machine.run(move |proc| {
            let g = proc.world();
            let mut vecs: Vec<Vec<i32>> = vec![Vec::new(); p];
            vecs[(proc.id() + 1) % p] = vec![9];
            let vecs = alltoallv(proc, &g, vecs, A2aSchedule::LinearPermutation);
            let bundles: Vec<Bundled<i32>> = (0..p).map(|_| Bundled::default()).collect();
            let bundles = alltoallv(proc, &g, bundles, A2aSchedule::LinearPermutation);
            assert!(bundles.iter().all(|b| b.bundles.is_empty()));
            vecs
        });
        for (me, vecs) in out.results.iter().enumerate() {
            for (src, v) in vecs.iter().enumerate() {
                let want: &[i32] = if (src + 1) % p == me { &[9] } else { &[] };
                assert_eq!(v, want, "{src} -> {me}");
            }
        }
        let m = out.merged_metrics();
        assert_eq!(m.counter("msg.sent"), p as u64);
        assert_eq!(m.counter("msg.frames"), (p + 2 * 2 * (p - 1)) as u64);
    }

    #[test]
    fn empty_slots_charge_nothing() {
        let machine = Machine::new(
            ProcGrid::line(4),
            CostModel {
                delta_ns: 0.0,
                tau_ns: 100.0,
                mu_ns: 1.0,
                ..CostModel::zero()
            },
        );
        let out = machine.run(|proc| {
            let g = proc.world();
            // Only proc 0 sends anything, and only to proc 1.
            let mut sends: Vec<Vec<i32>> = vec![Vec::new(); 4];
            if proc.id() == 0 {
                sends[1] = vec![1, 2, 3];
            }
            alltoallv(proc, &g, sends, A2aSchedule::LinearPermutation);
        });
        // Proc 0 paid for exactly one 3-word message; everyone else nothing.
        assert_eq!(out.clocks[0].words_sent, 3);
        assert_eq!(out.clocks[0].startups, 1);
        for c in &out.clocks[1..] {
            assert_eq!(c.words_sent, 0);
            assert_eq!(c.startups, 0);
        }
    }

    #[test]
    fn self_message_moves_without_charge() {
        let machine = Machine::new(ProcGrid::line(2), CostModel::cm5());
        let out = machine.run(|proc| {
            let g = proc.world();
            let mut sends: Vec<Vec<i32>> = vec![Vec::new(); 2];
            sends[proc.id()] = vec![42; 10];
            let recvs = alltoallv(proc, &g, sends, A2aSchedule::LinearPermutation);
            recvs[proc.id()].clone()
        });
        assert_eq!(out.results[0], vec![42; 10]);
        assert_eq!(out.clocks[0].words_sent, 0);
    }
}
