//! Reliable transport over the faulty simulated network.
//!
//! When a [`crate::fault::FaultPlan`] is attached to a machine, every
//! charged point-to-point message travels as a sequence-numbered
//! [`Frame::Data`] and must be acknowledged by the receiver. The sender
//! keeps a retransmit buffer of unacknowledged messages; the receiver
//! delivers data strictly in per-sender sequence order (restoring the
//! per-link FIFO guarantee the fault-free channel gives for free) and drops
//! duplicates. Together this makes any non-crash fault schedule invisible
//! to the program: results and simulated clocks are bit-identical to the
//! fault-free run.
//!
//! There is no retransmission timer. The scheduler tells a parked processor
//! when the machine has gone quiescent ([`crate::sched`]): at that instant
//! every frame that reached a ring has been dispatched and every ack
//! consumed, so what is still unacknowledged was dropped or is held back,
//! and [`Transport::pump`] transmits each such message once more. What a
//! link carries therefore depends on the program and the fault plan alone —
//! never on when an ack happened to arrive — and the retransmit and
//! duplicate counters are as reproducible as the simulated clocks.
//!
//! Acknowledgements and poison broadcasts are *control frames*: they model
//! the CM-5's separate, reliable control network, so they are never
//! fault-injected, never charged to the cost model, and never counted as
//! application traffic. This keeps the protocol's termination argument
//! local: once a processor has seen acks for all of its own sends it can
//! stop, because every ack it owes others has already been posted.
//!
//! A message's arrival timestamp (including any injected delay) is drawn
//! once, at first transmission, and replayed verbatim by every
//! retransmission; the retry counters are reported as diagnostics, never
//! charged to the simulated clock.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::chan::FrameSender;
use crate::error::MachineError;
use crate::fault::{FaultPlan, Verdict};
use crate::message::{Frame, Packet};
use crate::obs::TransportEvent;

/// Transmission attempts (original + retries) before declaring the peer
/// unreachable. With the ≤20 % per-attempt drop rates the chaos harness
/// uses, the probability of 30 consecutive losses is ≈ 10⁻²¹.
const MAX_ATTEMPTS: u32 = 30;

/// One unacknowledged message, kept for retransmission. The stored packet
/// shares its payload (and its memory charge) with the in-flight copy(s)
/// by refcount: keeping it for a possible retransmit is a refcount bump,
/// not a deep copy. Its `arrival_ns` is fixed at first transmission (delay
/// included), so retries replay the same timestamp.
struct Stored {
    pkt: Packet,
    /// Transmissions so far (1 after the original send).
    attempts: u32,
}

/// A transmission deferred until `release_at` total data transmissions have
/// happened on its link (fault-injected reordering). The frame is in the
/// network: it goes out when due whether or not a retry got through first.
struct HeldBack {
    release_at: u64,
    seq: u64,
    pkt: Packet,
}

/// Per-processor reliable-transport state (sender and receiver sides).
pub(crate) struct Transport {
    plan: Arc<FaultPlan>,
    /// Next sequence number per destination.
    next_seq: Vec<u64>,
    /// Next expected sequence number per source.
    expected: Vec<u64>,
    /// Out-of-order arrivals per source, keyed by sequence number.
    reorder: Vec<BTreeMap<u64, Packet>>,
    /// Unacknowledged sends, keyed by `(dst, seq)`.
    unacked: BTreeMap<(usize, u64), Stored>,
    /// Physical data transmissions per destination link (drives holdback).
    tx_count: Vec<u64>,
    /// Reorder-injected deferred transmissions per destination.
    holdback: Vec<Vec<HeldBack>>,
    /// `Proc::send` calls so far (drives the crash schedule).
    pub(crate) send_steps: u64,
    /// `Proc::recv` family calls so far (drives the recv-side crash
    /// schedule; uncharged control receives are excluded).
    pub(crate) recv_steps: u64,
    /// Retransmissions performed (diagnostic).
    pub(crate) retransmits: u64,
    /// Duplicate frames discarded by the receiver (diagnostic).
    pub(crate) dup_drops: u64,
    /// When set, buffer [`TransportEvent`]s for the owning processor to
    /// drain and timestamp (the transport itself has no clock access).
    pub(crate) record: bool,
    events: Vec<TransportEvent>,
    /// Frames this transport put on a ring — every data frame (first
    /// transmissions, duplicates, retransmissions) and every ack: its share
    /// of the owning processor's `msg.frames`.
    pub(crate) frames: u64,
}

impl Transport {
    pub(crate) fn new(plan: Arc<FaultPlan>, nprocs: usize) -> Self {
        Transport {
            plan,
            next_seq: vec![0; nprocs],
            expected: vec![0; nprocs],
            reorder: (0..nprocs).map(|_| BTreeMap::new()).collect(),
            unacked: BTreeMap::new(),
            tx_count: vec![0; nprocs],
            holdback: (0..nprocs).map(|_| Vec::new()).collect(),
            send_steps: 0,
            recv_steps: 0,
            retransmits: 0,
            dup_drops: 0,
            record: false,
            events: Vec::new(),
            frames: 0,
        }
    }

    /// Drain the buffered transport observations (empty unless `record`).
    pub(crate) fn take_events(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.events)
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Sender side: enqueue a packet for reliable delivery and make the
    /// first transmission attempt. The packet carries the fault-free
    /// arrival time; the plan's per-message delay is added here, once,
    /// keyed by sequence number, so retries replay the same timestamp.
    /// Returns the sequence number assigned to the message.
    pub(crate) fn send(
        &mut self,
        me: usize,
        senders: &[FrameSender],
        dst: usize,
        mut pkt: Packet,
    ) -> u64 {
        debug_assert_eq!(pkt.src, me, "a processor only sends its own packets");
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        pkt.arrival_ns += self.plan.delay_ns(me, dst, seq);
        self.unacked.insert((dst, seq), Stored { pkt, attempts: 1 });
        self.transmit(me, senders, dst, seq, 0);
        seq
    }

    /// One transmission attempt of the unacknowledged `(dst, seq)`, subject
    /// to the fault plan: zero, one or two copies, then every held-back
    /// frame the advancing link counter makes due (each itself a
    /// transmission that advances it). The frames reach `dst`'s ring
    /// together, so a receiver that has seen the first has the rest queued.
    fn transmit(&mut self, me: usize, senders: &[FrameSender], dst: usize, seq: u64, attempt: u32) {
        let verdict = self.plan.verdict(me, dst, seq, attempt);
        if self.record && verdict != Verdict::Deliver {
            self.events
                .push(TransportEvent::Verdict(dst, seq, verdict.label()));
        }
        let pkt = self.unacked[&(dst, seq)].pkt.clone();
        let copies = match verdict {
            Verdict::Drop => 0,
            Verdict::Deliver => 1,
            Verdict::Duplicate => 2,
            Verdict::HoldBack(n) => {
                let release_at = self.tx_count[dst] + n as u64;
                self.holdback[dst].push(HeldBack {
                    release_at,
                    seq,
                    pkt: pkt.clone(),
                });
                0
            }
        };
        let mut wire: Vec<Frame> = (0..copies)
            .map(|_| Frame::Data {
                seq,
                pkt: pkt.clone(),
            })
            .collect();
        let mut counted = 0;
        while counted < wire.len() {
            counted += 1;
            self.tx_count[dst] += 1;
            let count = self.tx_count[dst];
            self.holdback[dst].retain(|h| {
                let due = h.release_at <= count;
                if due {
                    wire.push(Frame::Data {
                        seq: h.seq,
                        pkt: h.pkt.clone(),
                    });
                }
                !due
            });
        }
        self.put(senders, dst, wire);
    }

    /// Put `frames` on `dst`'s ring together. The channel outlives all
    /// sends (the driver keeps receiver endpoints until every processor has
    /// finished).
    fn put(
        &mut self,
        senders: &[FrameSender],
        dst: usize,
        frames: impl IntoIterator<Item = Frame>,
    ) {
        self.frames += senders[dst].send_all(frames) as u64;
    }

    /// Receiver side: acknowledge and order one incoming data frame.
    /// Returns the `(seq, packet)` pairs that became deliverable, in
    /// sequence order (empty for duplicates and out-of-order arrivals).
    pub(crate) fn on_data(
        &mut self,
        me: usize,
        senders: &[FrameSender],
        seq: u64,
        pkt: Packet,
    ) -> Vec<(u64, Packet)> {
        let (src, arrival_ns) = (pkt.src, pkt.arrival_ns);
        // Always (re-)ack: acks are idempotent, and a respawned sender
        // knows nothing of the one its predecessor got.
        self.put(senders, src, [Frame::Ack { from: me, seq }]);
        if seq < self.expected[src] {
            self.dup_drops += 1;
            if self.record {
                self.events
                    .push(TransportEvent::DupDrop(src, seq, arrival_ns));
            }
            return Vec::new();
        }
        if seq > self.expected[src] {
            match self.reorder[src].entry(seq) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(pkt);
                }
                std::collections::btree_map::Entry::Occupied(_) => {
                    self.dup_drops += 1;
                    if self.record {
                        self.events
                            .push(TransportEvent::DupDrop(src, seq, arrival_ns));
                    }
                }
            }
            return Vec::new();
        }
        let mut ready = vec![(seq, pkt)];
        self.expected[src] += 1;
        while let Some(p) = self.reorder[src].remove(&self.expected[src]) {
            ready.push((self.expected[src], p));
            self.expected[src] += 1;
        }
        ready
    }

    /// Sender side: an ack arrived; retire the message.
    pub(crate) fn on_ack(&mut self, from: usize, seq: u64) {
        self.unacked.remove(&(from, seq));
    }

    /// Transmit every unacknowledged message once more: the machine went
    /// quiescent, so each was dropped or is held back. Errors with
    /// [`MachineError::Unreachable`] once a message exhausts its attempts.
    pub(crate) fn pump(&mut self, me: usize, senders: &[FrameSender]) -> Result<(), MachineError> {
        let lost: Vec<(usize, u64)> = self.unacked.keys().copied().collect();
        for (dst, seq) in lost {
            let st = self.unacked.get_mut(&(dst, seq)).expect("only acks retire");
            let attempt = st.attempts;
            if attempt >= MAX_ATTEMPTS {
                return Err(MachineError::Unreachable {
                    proc: me,
                    dst,
                    seq,
                    attempts: attempt,
                });
            }
            st.attempts += 1;
            self.retransmits += 1;
            if self.record {
                self.events
                    .push(TransportEvent::Retransmit(dst, seq, attempt));
            }
            self.transmit(me, senders, dst, seq, attempt);
        }
        Ok(())
    }

    /// True while any of this processor's sends is unacknowledged.
    pub(crate) fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Sequence number the next [`ReliableTransport::send`] to `dst` will
    /// assign. Replay logging must append the frame under this number
    /// *before* the send puts it on the wire: the receiver may consume the
    /// frame and crash at any point after transmission, and the recovery
    /// driver's log clone must already contain everything consumed.
    pub(crate) fn next_seq_for(&self, dst: usize) -> u64 {
        self.next_seq[dst]
    }

    /// Next expected sequence number from `src` (replay-log filtering).
    pub(crate) fn expected_from(&self, src: usize) -> u64 {
        self.expected[src]
    }

    /// Next expected sequence number per source (replay-log truncation).
    pub(crate) fn expected_all(&self) -> &[u64] {
        &self.expected
    }

    /// Capture the sequence-numbering state for an epoch checkpoint. Taken
    /// after a boundary flush, so no unacked/reordered/held-back state needs
    /// capturing: every own send is acked and every delivery consumed into
    /// the mailbox (which is checkpointed separately).
    pub(crate) fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            next_seq: self.next_seq.clone(),
            expected: self.expected.clone(),
            tx_count: self.tx_count.clone(),
            send_steps: self.send_steps,
            recv_steps: self.recv_steps,
            frames: self.frames,
        }
    }

    /// Reset to a checkpointed state on a respawned processor. In-flight
    /// sender state is cleared: the re-execution re-sends (with the same
    /// sequence numbers, so receivers dedup), and the replay log re-injects
    /// whatever peers had sent.
    pub(crate) fn restore(&mut self, s: &TransportSnapshot) {
        self.next_seq = s.next_seq.clone();
        self.expected = s.expected.clone();
        self.tx_count = s.tx_count.clone();
        self.send_steps = s.send_steps;
        self.recv_steps = s.recv_steps;
        self.frames = s.frames;
        self.unacked.clear();
        for r in &mut self.reorder {
            r.clear();
        }
        for h in &mut self.holdback {
            h.clear();
        }
    }
}

/// The reliable transport's checkpointable state: counters only — see
/// [`Transport::snapshot`] for why the retransmit machinery needs no capture
/// at an epoch boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TransportSnapshot {
    next_seq: Vec<u64>,
    expected: Vec<u64>,
    tx_count: Vec<u64>,
    send_steps: u64,
    recv_steps: u64,
    frames: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::{frame_channel, FrameReceiver};
    use crate::cost::Words;
    use std::any::Any;

    fn wires(n: usize) -> (Vec<FrameSender>, Vec<FrameReceiver>) {
        (0..n).map(|_| frame_channel()).unzip()
    }

    fn out_pkt(
        src: usize,
        tag: u64,
        arrival_ns: f64,
        words: Words,
        data: Arc<dyn Any + Send + Sync>,
    ) -> Packet {
        Packet {
            src,
            tag,
            arrival_ns,
            words,
            data,
            charge: None,
        }
    }

    fn data_frames(rx: &FrameReceiver) -> Vec<(u64, Packet)> {
        let mut out = Vec::new();
        while let Some(f) = rx.try_recv() {
            if let Frame::Data { seq, pkt } = f {
                out.push((seq, pkt));
            }
        }
        out
    }

    #[test]
    fn clean_link_sends_exactly_once_in_order() {
        let (txs, rxs) = wires(2);
        let mut t = Transport::new(Arc::new(FaultPlan::new(0)), 2);
        for i in 0..4i32 {
            t.send(0, &txs, 1, out_pkt(0, 7, i as f64, 1, Arc::new(vec![i])));
        }
        let got = data_frames(&rxs[1]);
        assert_eq!(
            got.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(t.has_unacked());
        for s in 0..4 {
            t.on_ack(1, s);
        }
        assert!(!t.has_unacked());
    }

    #[test]
    fn dropped_message_is_retransmitted_with_same_arrival() {
        let (txs, rxs) = wires(2);
        let mut t = Transport::new(Arc::new(plan_dropping_first()), 2);
        t.send(0, &txs, 1, out_pkt(0, 7, 42.0, 1, Arc::new(vec![9i32])));
        assert!(data_frames(&rxs[1]).is_empty(), "attempt 0 must be dropped");
        t.pump(0, &txs).unwrap();
        let got = data_frames(&rxs[1]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
        assert_eq!(
            got[0].1.arrival_ns, 42.0,
            "retry must replay the original arrival time"
        );
        assert_eq!(t.retransmits, 1);
    }

    #[test]
    fn retransmit_shares_the_original_buffer() {
        let (txs, rxs) = wires(2);
        let mut t = Transport::new(Arc::new(FaultPlan::new(0)), 2);
        let buf: Arc<dyn Any + Send + Sync> = Arc::new(vec![5i32, 6]);
        t.send(0, &txs, 1, out_pkt(0, 7, 1.0, 2, Arc::clone(&buf)));
        t.pump(0, &txs).unwrap();
        let got = data_frames(&rxs[1]);
        assert_eq!(got.len(), 2, "original plus one retransmission");
        for (_, p) in &got {
            assert!(
                Arc::ptr_eq(&p.data, &buf),
                "every copy on the wire must share the one buffer"
            );
        }
    }

    #[test]
    fn recording_buffers_verdict_retransmit_and_dup_events() {
        let (txs, _rxs) = wires(2);
        let mut t = Transport::new(Arc::new(plan_dropping_first()), 2);
        t.record = true;
        let seq = t.send(0, &txs, 1, out_pkt(0, 7, 0.0, 1, Arc::new(vec![1i32])));
        assert_eq!(seq, 0);
        t.pump(0, &txs).unwrap();
        // Stale duplicate on the receive side of the same transport.
        t.expected[1] = 5;
        let dup = out_pkt(1, 7, 3.5, 1, Arc::new(vec![0i32]));
        assert!(t.on_data(0, &txs, 2, dup).is_empty());
        let evs = t.take_events();
        assert!(
            matches!(evs[0], TransportEvent::Verdict(1, 0, "drop")),
            "first event should be the dropped attempt's verdict"
        );
        assert!(evs
            .iter()
            .any(|e| matches!(e, TransportEvent::Retransmit(1, 0, 1))));
        assert!(evs
            .iter()
            .any(|e| matches!(e, TransportEvent::DupDrop(1, 2, at) if *at == 3.5)));
        assert!(t.take_events().is_empty(), "drain must consume the buffer");
    }

    /// A plan whose link 0→1 drops attempt 0 of seq 0 and delivers attempt 1.
    fn plan_dropping_first() -> FaultPlan {
        let mut seed = 0u64;
        loop {
            let p = FaultPlan::new(seed).with_drop(0.6);
            if p.verdict(0, 1, 0, 0) == Verdict::Drop && p.verdict(0, 1, 0, 1) == Verdict::Deliver {
                return p;
            }
            seed += 1;
        }
    }

    /// A held-back frame is in the network: it goes out when the link
    /// counter makes it due — in one batch with the frame that made it so —
    /// although a retransmission got through and was acknowledged
    /// meanwhile. What a link carries never depends on when an ack came.
    #[test]
    fn held_back_frame_goes_out_when_due_acked_or_not() {
        use Verdict::{Deliver, HoldBack};
        let plan = (0u64..)
            .map(|seed| FaultPlan::new(seed).with_reorder(0.5))
            .find(|p| {
                let v = |seq, attempt| p.verdict(0, 1, seq, attempt);
                (v(0, 0), v(0, 1), v(1, 0)) == (HoldBack(2), Deliver, Deliver)
            })
            .unwrap();
        let (txs, rxs) = wires(2);
        let mut t = Transport::new(Arc::new(plan), 2);
        let seqs = |rx| -> Vec<u64> { data_frames(rx).iter().map(|(s, _)| *s).collect() };
        t.send(0, &txs, 1, out_pkt(0, 7, 1.0, 1, Arc::new(vec![1i32])));
        assert_eq!(seqs(&rxs[1]), [0u64; 0], "held back");
        t.pump(0, &txs).unwrap();
        assert_eq!(seqs(&rxs[1]), [0], "the retry overtakes it");
        t.on_ack(1, 0);
        assert!(!t.has_unacked());
        t.send(0, &txs, 1, out_pkt(0, 7, 2.0, 1, Arc::new(vec![2i32])));
        assert_eq!(seqs(&rxs[1]), [1, 0], "due after two transmissions");
    }

    #[test]
    fn receiver_orders_and_deduplicates() {
        let (txs, _rxs) = wires(2);
        let mut t = Transport::new(Arc::new(FaultPlan::new(0)), 2);
        let pkt = |v: i32| out_pkt(1, 7, 0.0, 1, Arc::new(vec![v]));
        // seq 1 arrives early: buffered.
        assert!(t.on_data(0, &txs, 1, pkt(1)).is_empty());
        // duplicate of seq 1: dropped.
        assert!(t.on_data(0, &txs, 1, pkt(1)).is_empty());
        assert_eq!(t.dup_drops, 1);
        // seq 0 arrives: both become deliverable, in order.
        let ready = t.on_data(0, &txs, 0, pkt(0));
        assert_eq!(
            ready.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1],
            "delivered packets must carry their sequence numbers"
        );
        let vals: Vec<i32> = ready
            .into_iter()
            .map(|(_, p)| p.data.downcast::<Vec<i32>>().unwrap()[0])
            .collect();
        assert_eq!(vals, vec![0, 1]);
        // stale duplicate of seq 0: dropped.
        assert!(t.on_data(0, &txs, 0, pkt(0)).is_empty());
        assert_eq!(t.dup_drops, 2);
    }

    #[test]
    fn unreachable_after_max_attempts() {
        let plan = FaultPlan::new(1).with_link(
            0,
            1,
            crate::fault::LinkFaults {
                drop_p: 1.0,
                ..Default::default()
            },
        );
        let (txs, _rxs) = wires(2);
        let mut t = Transport::new(Arc::new(plan), 2);
        t.send(0, &txs, 1, out_pkt(0, 7, 0.0, 1, Arc::new(vec![1i32])));
        let err = loop {
            if let Err(e) = t.pump(0, &txs) {
                break e;
            }
        };
        assert_eq!(t.retransmits, u64::from(MAX_ATTEMPTS) - 1);
        match err {
            MachineError::Unreachable {
                proc: 0,
                dst: 1,
                seq: 0,
                attempts,
            } => {
                assert_eq!(attempts, MAX_ATTEMPTS);
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    proptest::proptest! {
        /// Epoch checkpointing captures exactly the transport's sequence
        /// counters: over an arbitrary send/receive history, a fresh
        /// transport restored from the snapshot must re-snapshot
        /// identically and carry no in-flight state (the boundary flush
        /// guarantees the original had none either), and restoring *over*
        /// in-flight state must clear it.
        #[test]
        fn transport_snapshot_restore_roundtrip(
            sends in proptest::collection::vec((0usize..3, 1usize..5), 0..30),
            recvs in proptest::collection::vec((0usize..3, 1u64..4), 0..20),
            steps in (0u64..50, 0u64..50),
        ) {
            let (txs, _rxs) = wires(3);
            let mut t = Transport::new(Arc::new(FaultPlan::new(0)), 3);
            for &(dst, words) in &sends {
                t.send(0, &txs, dst, out_pkt(0, 7, 1e6, words, Arc::new(vec![1i32; words])));
            }
            for &(src, n) in &recvs {
                for _ in 0..n {
                    let seq = t.expected[src];
                    let pkt = out_pkt(src, 7, 0.0, 1, Arc::new(Vec::<i32>::new()));
                    t.on_data(1, &txs, seq, pkt);
                }
            }
            t.send_steps = steps.0;
            t.recv_steps = steps.1;
            let snap = t.snapshot();

            let mut fresh = Transport::new(Arc::new(FaultPlan::new(0)), 3);
            fresh.restore(&snap);
            proptest::prop_assert_eq!(&fresh.snapshot(), &snap);
            proptest::prop_assert!(fresh.unacked.is_empty());
            proptest::prop_assert!(fresh.reorder.iter().all(|r| r.is_empty()));
            proptest::prop_assert!(fresh.holdback.iter().all(|h| h.is_empty()));

            // Restoring over live in-flight state clears it too: the
            // respawned re-execution re-sends under the same sequence
            // numbers and the replay log re-supplies incoming frames.
            t.restore(&snap);
            proptest::prop_assert!(t.unacked.is_empty());
            proptest::prop_assert_eq!(&t.snapshot(), &snap);
        }
    }
}
