//! The transport: every frame a processor puts on a ring goes through it.
//!
//! Every machine runs a [`crate::fault::FaultPlan`], the empty one unless
//! built `.with_faults(plan)`, and the plan decides how frames travel — per
//! link, once, when the transport is built. A frame travels raw
//! ([`Frame::Raw`]) unless its link needs sequence numbers: the ring, like
//! the paper's CM-5 data network, delivers every send once and in order.
//! A link `me → dst` is **sequenced** iff the plan can inject a fault on it
//! or either end is a possible crash victim ([`FaultPlan::may_crash`]);
//! its charged messages travel as sequence-numbered [`Frame::Data`], which
//! the receiver delivers in per-sender sequence order, dropping duplicates:
//! any non-crash fault schedule is invisible to the program, and a
//! respawned victim's re-sends and replayed frames are deduplicated. A
//! frame between two survivors on a link that cannot fault is never
//! duplicated, never re-sent and never replayed, so it needs no number.
//! Under a benign plan no link is sequenced and the transport keeps no
//! per-peer state. Results and simulated clocks are bit-identical to the
//! fault-free run (a message's delay is drawn once, at first transmission,
//! and replayed by every retransmission and by the replay log).
//!
//! Only a **lossy** link is acknowledged: one whose plan may drop a frame or
//! hold it back ([`crate::fault::LinkFaults`] with `drop_p > 0` or
//! `reorder_p > 0`). There the receiver acks every frame and the sender
//! keeps a retransmit buffer of what is unacknowledged. On any other link a
//! frame is in its destination's ring, in order, by the time
//! [`Transport::send`] returns — duplicates and delays cannot change that —
//! so there is nothing to acknowledge and nothing to keep for a retry. Both
//! ends derive the rule from the same plan.
//!
//! There is no retransmission timer. The scheduler tells a parked processor
//! when the machine has gone quiescent ([`crate::sched`]): at that instant
//! every frame that reached a ring has been dispatched and every ack
//! consumed, so what is still unacknowledged was dropped or is held back,
//! and [`Transport::pump`] transmits each such message once more. What a
//! link carries therefore depends on the program and the fault plan alone,
//! and the retransmit and duplicate counters are as reproducible as the
//! simulated clocks.
//!
//! Acknowledgements and poison broadcasts are *control frames*: they model
//! the CM-5's separate, reliable control network, so they are never
//! fault-injected, never charged to the cost model, and never counted as
//! application traffic. Once a processor has seen acks for all of its own
//! sends on lossy links it can stop: every ack it owes others is posted.
//! The simulator's other control traffic — clock sync, the flag
//! transposition of a many-to-many, the retire barrier — is uncharged too,
//! and sequenced only under crash recovery on a sequenced link
//! ([`Transport::send_control`]).
//!
//! The transport keeps its own books: under crash recovery it appends every
//! frame addressed to a possible victim to the replay log
//! ([`crate::recovery`]) before the frame reaches the wire — only a victim
//! is ever respawned, so only its incoming frames can be replayed — and
//! records its fault verdicts, retransmissions and duplicate drops in
//! the owning processor's recorder, counts the program-level steps the
//! crash schedule fires at, and owns the frame, retransmit and
//! duplicate-drop counters, which its snapshot carries across a respawn.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::chan::FrameSender;
use crate::error::MachineError;
use crate::fault::{FaultPlan, Verdict};
use crate::message::{Frame, Packet};
use crate::obs::{EventKind, Recorder};
use crate::recovery::RecoveryState;

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

/// Which of the fault plan's two crash schedules a program-level step
/// counts towards.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    Send,
    Recv,
}

/// How frames between this processor and one peer travel, decided once
/// from the fault plan (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    /// The plan can inject a fault on `me → peer`: each transmission draws
    /// a verdict and each message a delay. Elsewhere both are known to be
    /// `Deliver` and 0.
    faulty: bool,
    /// `me → peer` may lose or hold back a frame: a sent frame is kept for
    /// retransmission until acknowledged.
    lossy: bool,
    /// `peer → me` may lose or hold back a frame: this end acknowledges
    /// every frame it gets from the peer.
    acks: bool,
    /// The peer may crash: under recovery a frame to it is logged for
    /// replay.
    to_victim: bool,
    /// Either end may crash: under recovery a pooled send to the peer
    /// ships a frozen copy, never the live slot.
    victim: bool,
}

impl Link {
    /// Data frames to the peer carry sequence numbers: the plan can inject
    /// a fault here, or either end may crash. Control frames do too, under
    /// crash recovery.
    fn sequenced(&self) -> bool {
        self.faulty || self.victim
    }
}

/// Per-processor transport state (sender and receiver sides).
pub(crate) struct Transport<'m> {
    me: usize,
    plan: Arc<FaultPlan>,
    /// How each peer's link travels, indexed by peer. Empty under a benign
    /// plan — every frame raw — and so are the five per-peer vectors below.
    links: Vec<Link>,
    /// Every processor's ring; the channels outlive all sends (the driver
    /// keeps receiver endpoints until every processor has finished).
    senders: &'m [FrameSender],
    /// The run's replay log under crash recovery (never under a benign
    /// plan).
    log: Option<Arc<RecoveryState>>,
    /// Next sequence number per destination.
    next_seq: Vec<u64>,
    /// Next expected sequence number per source.
    expected: Vec<u64>,
    /// Out-of-order arrivals per source, keyed by sequence number.
    reorder: Vec<BTreeMap<u64, Packet>>,
    /// The deliverable packets [`Transport::on_data`] hands out, kept
    /// between frames so that an in-order delivery allocates nothing.
    ready: Vec<(u64, Packet)>,
    /// Unacknowledged sends on lossy links, keyed by `(dst, seq)`.
    unacked: BTreeMap<(usize, u64), Stored>,
    /// Physical data transmissions per destination link (drives holdback).
    tx_count: Vec<u64>,
    /// Reorder-injected deferred transmissions per destination.
    holdback: Vec<Vec<HeldBack>>,
    /// Program-level sends and receives so far (uncharged control traffic
    /// excluded): the steps the crash schedule counts.
    send_steps: u64,
    recv_steps: u64,
    /// False on a respawned processor: its crash already fired once.
    crash_armed: bool,
    /// Retransmissions performed (diagnostic).
    pub(crate) retransmits: u64,
    /// Duplicate frames discarded by the receiver (diagnostic).
    pub(crate) dup_drops: u64,
    /// Frames this transport put on a ring — raw and sequenced data (first
    /// transmissions, duplicates, retransmissions), control frames and acks:
    /// the owning processor's `msg.frames`.
    pub(crate) frames: u64,
}

impl<'m> Transport<'m> {
    pub(crate) fn new(me: usize, plan: Arc<FaultPlan>, senders: &'m [FrameSender]) -> Self {
        let peers = if plan.is_benign() { 0 } else { senders.len() };
        let links: Vec<Link> = (0..peers)
            .map(|peer| {
                let out = plan.link(me, peer);
                let to_victim = plan.may_crash(peer);
                let victim = to_victim || plan.may_crash(me);
                Link {
                    faulty: !out.is_benign(),
                    lossy: out.is_lossy(),
                    acks: plan.link(peer, me).is_lossy(),
                    to_victim,
                    victim,
                }
            })
            .collect();
        Transport {
            me,
            plan,
            links,
            senders,
            log: None,
            next_seq: vec![0; peers],
            expected: vec![0; peers],
            reorder: (0..peers).map(|_| BTreeMap::new()).collect(),
            ready: Vec::new(),
            unacked: BTreeMap::new(),
            tx_count: vec![0; peers],
            holdback: (0..peers).map(|_| Vec::new()).collect(),
            send_steps: 0,
            recv_steps: 0,
            crash_armed: true,
            retransmits: 0,
            dup_drops: 0,
            frames: 0,
        }
    }

    /// Run under crash recovery from now on, unless the plan is benign: it
    /// crashes nothing, so there is nothing to replay. Frames to a possible
    /// victim go to `log`. A `respawned` processor also disarms the crash
    /// schedule: it fired once.
    pub(crate) fn attach_log(&mut self, log: Arc<RecoveryState>, respawned: bool) {
        if !self.links.is_empty() {
            self.log = Some(log);
        }
        self.crash_armed = !respawned;
    }

    /// True iff crash recovery is attached and the plan is not benign —
    /// machine-wide, whether or not any frame of this processor is logged.
    pub(crate) fn recovering(&self) -> bool {
        self.log.is_some()
    }

    /// True iff a frame to `dst` goes to the replay log: recovery is
    /// attached and `dst` may crash.
    pub(crate) fn logs_to(&self, dst: usize) -> bool {
        self.recovering() && self.links[dst].to_victim
    }

    /// True iff a pooled send to `dst` must ship a frozen copy: recovery is
    /// attached and either end may crash. A frame to a victim is logged and
    /// must keep its bytes; a respawned victim's re-sends are dropped
    /// undecoded as duplicates, so a live slot sent there would never come
    /// back.
    pub(crate) fn freezes_to(&self, dst: usize) -> bool {
        self.recovering() && self.links[dst].victim
    }

    /// Count one program-level send or receive, and fail with
    /// [`MachineError::ProcCrashed`] if the fault plan crashes this
    /// processor at exactly this step.
    pub(crate) fn step(&mut self, step: Step) -> Result<(), MachineError> {
        let (count, crash) = match step {
            Step::Send => (&mut self.send_steps, self.plan.crash()),
            Step::Recv => (&mut self.recv_steps, self.plan.crash_at_recv()),
        };
        *count += 1;
        match crash {
            Some((proc, at)) if self.crash_armed && proc == self.me && at == *count => {
                Err(MachineError::ProcCrashed { proc, step: at })
            }
            _ => Ok(()),
        }
    }

    /// Send one data packet to `dst`: sequenced iff its link is. Returns
    /// the sequence number, if one was assigned.
    pub(crate) fn send(
        &mut self,
        dst: usize,
        pkt: Packet,
        now_ns: f64,
        obs: &mut Recorder,
    ) -> Option<u64> {
        let sequenced = self.links.get(dst).is_some_and(Link::sequenced);
        self.send_as(sequenced, dst, pkt, now_ns, obs)
    }

    /// Send one uncharged control packet to `dst`: sequenced iff recovery
    /// is attached and the link is sequenced, since an unsequenced frame
    /// consumed just before a crash could not be deduplicated against its
    /// replayed copy, nor a respawned victim's re-sent one.
    pub(crate) fn send_control(
        &mut self,
        dst: usize,
        pkt: Packet,
        now_ns: f64,
        obs: &mut Recorder,
    ) {
        let sequenced = self.recovering() && self.links[dst].sequenced();
        self.send_as(sequenced, dst, pkt, now_ns, obs);
    }

    /// Put a packet on `dst`'s ring: raw unless `sequenced`. A sequenced
    /// packet gets the next sequence number on its link and makes its first
    /// transmission attempt. The packet carries the fault-free arrival time;
    /// the plan's per-message delay is added here, once, keyed by sequence
    /// number, so retries replay the same timestamp. On a lossy link the
    /// packet is also kept for retransmission until acknowledged.
    ///
    /// Under crash recovery a frame to a possible victim is logged *before*
    /// it reaches the wire: once it is there the receiver may consume it and
    /// crash at any moment, and the driver's clone of the log must already
    /// hold everything the victim consumed. The logged copy carries the
    /// delayed arrival, so a replayed frame is bit-identical to the
    /// transmitted one.
    fn send_as(
        &mut self,
        sequenced: bool,
        dst: usize,
        mut pkt: Packet,
        now_ns: f64,
        obs: &mut Recorder,
    ) -> Option<u64> {
        if !sequenced {
            self.senders[dst].send_raw(pkt);
            self.frames += 1;
            return None;
        }
        debug_assert_eq!(pkt.src, self.me, "a processor only sends its own packets");
        let link = self.links[dst];
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        if link.faulty {
            pkt.arrival_ns += self.plan.delay_ns(self.me, dst, seq);
        }
        if let Some(log) = self.log.as_ref().filter(|_| link.to_victim) {
            log.log_frame(dst, seq, pkt.clone());
        }
        if link.lossy {
            let stored = Stored {
                pkt: pkt.clone(),
                attempts: 1,
            };
            self.unacked.insert((dst, seq), stored);
        }
        self.transmit(dst, seq, pkt, 0, now_ns, obs);
        Some(seq)
    }

    /// Transmission `attempt` of `(dst, seq)`, subject to the fault plan:
    /// zero, one or two copies, then every held-back frame the advancing
    /// link counter makes due (each itself a transmission that advances
    /// it). The frames reach `dst`'s ring together, so a receiver that has
    /// seen the first has the rest queued. A link that cannot fault
    /// delivers without a draw.
    fn transmit(
        &mut self,
        dst: usize,
        seq: u64,
        pkt: Packet,
        attempt: u32,
        now_ns: f64,
        obs: &mut Recorder,
    ) {
        let verdict = if self.links[dst].faulty {
            self.plan.verdict(self.me, dst, seq, attempt)
        } else {
            Verdict::Deliver
        };
        if verdict != Verdict::Deliver {
            let verdict = verdict.label();
            obs.event(now_ns, EventKind::FaultVerdict { dst, seq, verdict });
        }
        let twin = match verdict {
            Verdict::Drop => return,
            Verdict::HoldBack(n) => {
                let release_at = self.tx_count[dst] + n as u64;
                self.holdback[dst].push(HeldBack {
                    release_at,
                    seq,
                    pkt,
                });
                return;
            }
            Verdict::Deliver => None,
            Verdict::Duplicate => Some(Frame::Data {
                seq,
                pkt: pkt.clone(),
            }),
        };
        let n = 1 + u64::from(twin.is_some());
        let copies = std::iter::once(Frame::Data { seq, pkt }).chain(twin);
        if self.holdback[dst].is_empty() {
            // Nothing is held back on this link, so nothing can fall due.
            self.tx_count[dst] += n;
            self.put(dst, copies);
            return;
        }
        let mut wire: Vec<Frame> = copies.collect();
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
        self.put(dst, wire);
    }

    /// Put `frames` on `dst`'s ring together.
    fn put(&mut self, dst: usize, frames: impl IntoIterator<Item = Frame>) {
        self.frames += self.senders[dst].send_all(frames) as u64;
    }

    /// Receiver side: order one incoming data frame, and acknowledge it if
    /// it came over a lossy link. Returns the `(seq, packet)` pairs that
    /// became deliverable, in sequence order (empty for duplicates and
    /// out-of-order arrivals), in the transport's one delivery buffer: the
    /// caller drains it and hands it back with [`Transport::recycle`]. A
    /// dropped duplicate is recorded at its own arrival time — *when* this
    /// processor looked at its ring follows the interleaving — or at
    /// `now_ns` for an uncharged control frame, which has none.
    pub(crate) fn on_data(
        &mut self,
        seq: u64,
        pkt: Packet,
        now_ns: f64,
        obs: &mut Recorder,
    ) -> Vec<(u64, Packet)> {
        let src = pkt.src;
        if self.links[src].acks {
            // Always (re-)ack: acks are idempotent, and a respawned sender
            // knows nothing of the one its predecessor got.
            self.put(src, [Frame::Ack { from: self.me, seq }]);
        }
        let mut ready = std::mem::take(&mut self.ready);
        debug_assert!(ready.is_empty(), "the delivery buffer was not drained");
        let duplicate = seq < self.expected[src] || self.reorder[src].contains_key(&seq);
        if duplicate {
            self.dup_drops += 1;
            let at = if pkt.arrival_ns.is_finite() {
                pkt.arrival_ns
            } else {
                now_ns
            };
            obs.event(at, EventKind::DupDrop { src, seq });
            return ready;
        }
        if seq > self.expected[src] {
            self.reorder[src].insert(seq, pkt);
            return ready;
        }
        ready.push((seq, pkt));
        self.expected[src] += 1;
        while let Some(p) = self.reorder[src].remove(&self.expected[src]) {
            ready.push((self.expected[src], p));
            self.expected[src] += 1;
        }
        ready
    }

    /// Take back the drained delivery buffer [`Transport::on_data`] handed
    /// out, keeping its capacity for the next frame.
    pub(crate) fn recycle(&mut self, ready: Vec<(u64, Packet)>) {
        debug_assert!(ready.is_empty(), "recycled a buffer still holding packets");
        self.ready = ready;
    }

    /// Sender side: an ack arrived; retire the message.
    pub(crate) fn on_ack(&mut self, from: usize, seq: u64) {
        self.unacked.remove(&(from, seq));
    }

    /// Transmit every unacknowledged message once more: the machine went
    /// quiescent, so each was dropped or is held back (on a lossy link; no
    /// other link keeps any). Errors with [`MachineError::Unreachable`]
    /// once a message exhausts its attempts.
    pub(crate) fn pump(&mut self, now_ns: f64, obs: &mut Recorder) -> Result<(), MachineError> {
        let lost: Vec<(usize, u64)> = self.unacked.keys().copied().collect();
        for (dst, seq) in lost {
            let st = self.unacked.get_mut(&(dst, seq)).expect("only acks retire");
            let attempt = st.attempts;
            if attempt >= MAX_ATTEMPTS {
                return Err(MachineError::Unreachable {
                    proc: self.me,
                    dst,
                    seq,
                    attempts: attempt,
                });
            }
            st.attempts += 1;
            let pkt = st.pkt.clone();
            self.retransmits += 1;
            obs.event(now_ns, EventKind::Retransmit { dst, seq, attempt });
            self.transmit(dst, seq, pkt, attempt, now_ns, obs);
        }
        Ok(())
    }

    /// True while any of this processor's sends on a lossy link is
    /// unacknowledged — the only sends it ever waits for.
    pub(crate) fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Next expected sequence number from `src` (replay-log filtering).
    pub(crate) fn expected_from(&self, src: usize) -> u64 {
        self.expected[src]
    }

    /// At an epoch boundary, drop from this processor's replay log every
    /// frame it has consumed; returns the log's charged words `(before,
    /// after)`, as [`RecoveryState::truncate_log`] — `(0, 0)` when the
    /// transport does not log.
    pub(crate) fn truncate_log(&self) -> (u64, u64) {
        self.log
            .as_ref()
            .map_or((0, 0), |log| log.truncate_log(self.me, &self.expected))
    }

    /// Capture the transport's state for an epoch checkpoint. Taken after a
    /// boundary flush, so no unacked/reordered/held-back state needs
    /// capturing: every own send on a lossy link is acked, no other link
    /// keeps or reorders anything, and every delivery is consumed into the
    /// mailbox (which is checkpointed separately).
    pub(crate) fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            next_seq: self.next_seq.clone(),
            expected: self.expected.clone(),
            tx_count: self.tx_count.clone(),
            send_steps: self.send_steps,
            recv_steps: self.recv_steps,
            retransmits: self.retransmits,
            dup_drops: self.dup_drops,
            frames: self.frames,
        }
    }

    /// Reset to a checkpointed state on a respawned processor. In-flight
    /// sender state is cleared: the re-execution re-sends (with the same
    /// sequence numbers, so receivers dedup), and the replay log re-injects
    /// whatever peers had sent.
    pub(crate) fn restore(&mut self, s: TransportSnapshot) {
        self.next_seq = s.next_seq;
        self.expected = s.expected;
        self.tx_count = s.tx_count;
        self.send_steps = s.send_steps;
        self.recv_steps = s.recv_steps;
        self.retransmits = s.retransmits;
        self.dup_drops = s.dup_drops;
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
    retransmits: u64,
    dup_drops: u64,
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

    fn acks(rx: &FrameReceiver) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        while let Some(f) = rx.try_recv() {
            if let Frame::Ack { from, seq } = f {
                out.push((from, seq));
            }
        }
        out
    }

    /// A plan whose every link is lossy by the rule, yet whose drop draw
    /// (`k / 2⁵³`) falls below its rate only at `k = 0`: every attempt is
    /// delivered.
    fn lossy_but_clean() -> FaultPlan {
        FaultPlan::new(0).with_drop(f64::MIN_POSITIVE)
    }

    #[test]
    fn clean_link_sends_exactly_once_in_order() {
        let (txs, rxs) = wires(2);
        let mut t = Transport::new(0, Arc::new(lossy_but_clean()), &txs);
        for i in 0..4i32 {
            t.send(
                1,
                out_pkt(0, 7, i as f64, 1, Arc::new(vec![i])),
                0.0,
                &mut Recorder::default(),
            );
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
        let mut t = Transport::new(0, Arc::new(plan_dropping_first()), &txs);
        t.send(
            1,
            out_pkt(0, 7, 42.0, 1, Arc::new(vec![9i32])),
            0.0,
            &mut Recorder::default(),
        );
        assert!(data_frames(&rxs[1]).is_empty(), "attempt 0 must be dropped");
        t.pump(0.0, &mut Recorder::default()).unwrap();
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
        let mut t = Transport::new(0, Arc::new(lossy_but_clean()), &txs);
        let buf: Arc<dyn Any + Send + Sync> = Arc::new(vec![5i32, 6]);
        t.send(
            1,
            out_pkt(0, 7, 1.0, 2, Arc::clone(&buf)),
            0.0,
            &mut Recorder::default(),
        );
        t.pump(0.0, &mut Recorder::default()).unwrap();
        let got = data_frames(&rxs[1]);
        assert_eq!(got.len(), 2, "original plus one retransmission");
        for (_, p) in &got {
            assert!(
                Arc::ptr_eq(&p.data, &buf),
                "every copy on the wire must share the one buffer"
            );
        }
    }

    /// On the empty plan a frame travels raw: no sequence number, no
    /// verdict, nothing kept per peer — yet counted, and its snapshot
    /// carries the counters alone. Recovery attached, it still logs nothing,
    /// and control traffic travels raw too.
    #[test]
    fn a_fault_free_transport_sends_raw_and_keeps_no_per_peer_state() {
        let (txs, rxs) = wires(2);
        let mut t = Transport::new(0, Arc::new(FaultPlan::new(0)), &txs);
        let rec = Arc::new(RecoveryState::new(2));
        t.attach_log(Arc::clone(&rec), false);
        assert!(!t.recovering() && !t.logs_to(1) && !t.freezes_to(1));
        let mut log = Recorder::new(true, false);
        let pkt = || out_pkt(0, 7, 5.0, 1, Arc::new(vec![1i32]));
        assert_eq!(t.send(1, pkt(), 0.0, &mut log), None);
        t.send_control(1, pkt(), 0.0, &mut log);
        for _ in 0..2 {
            match rxs[1].try_recv() {
                Some(Frame::Raw(p)) => assert_eq!((p.src, p.arrival_ns), (0, 5.0)),
                _ => panic!("expected a raw frame"),
            }
        }
        assert!(rxs[1].try_recv().is_none());
        assert_eq!((t.frames, log.len()), (2, 0));
        assert!(!t.has_unacked());
        assert_eq!(t.truncate_log(), (0, 0));
        assert!(rec.clone_log(1).is_empty());
        let snap = t.snapshot();
        let empty: &[u64] = &[];
        assert_eq!(
            (&snap.next_seq[..], &snap.expected[..], &snap.tx_count[..]),
            (empty, empty, empty)
        );
        assert!(t.reorder.is_empty() && t.holdback.is_empty());
        assert_eq!(snap.frames, 2);
    }

    /// A link that neither drops nor holds back is not acknowledged: every
    /// frame (duplicates included) is on the ring when `send` returns, the
    /// sender keeps nothing to retransmit, and the receiver, ordering and
    /// deduplicating as ever, posts no ack.
    #[test]
    fn a_lossless_link_is_not_acknowledged() {
        let plan = Arc::new(FaultPlan::new(3).with_duplicate(0.5).with_delay(0.5, 1e3));
        let (txs, rxs) = wires(2);
        let (mut a, mut b) = (
            Transport::new(0, Arc::clone(&plan), &txs),
            Transport::new(1, plan, &txs),
        );
        for i in 0..8i32 {
            a.send(
                1,
                out_pkt(0, 7, 0.0, 1, Arc::new(vec![i])),
                0.0,
                &mut Recorder::default(),
            );
        }
        assert!(!a.has_unacked());
        a.pump(0.0, &mut Recorder::default()).unwrap();
        assert_eq!(a.retransmits, 0, "nothing is kept, so nothing is retried");
        let wire = data_frames(&rxs[1]);
        assert!(wire.len() > 8, "the plan duplicated some frames");
        assert_eq!(a.frames, wire.len() as u64);
        let mut delivered = Vec::new();
        for (seq, pkt) in wire {
            let mut ready = b.on_data(seq, pkt, 0.0, &mut Recorder::default());
            delivered.extend(ready.drain(..).map(|(s, _)| s));
            b.recycle(ready);
        }
        assert_eq!(delivered, (0..8).collect::<Vec<u64>>());
        assert_eq!(b.dup_drops, a.frames - 8);
        assert_eq!((acks(&rxs[0]), b.frames), (vec![], 0), "no ack was posted");
    }

    /// One lossy override in a lossless plan: exactly that link is
    /// acknowledged and retransmitted — on both ends, and not in reverse.
    #[test]
    fn only_the_lossy_link_is_acknowledged_and_retransmitted() {
        let dead = crate::fault::LinkFaults {
            drop_p: 1.0,
            ..Default::default()
        };
        let plan = Arc::new(FaultPlan::new(4).with_duplicate(0.2).with_link(0, 1, dead));
        let (txs, rxs) = wires(3);
        let mut t: Vec<Transport> = (0..3)
            .map(|me| Transport::new(me, Arc::clone(&plan), &txs))
            .collect();
        let pkt = |src| out_pkt(src, 7, 0.0, 1, Arc::new(vec![1i32]));
        for dst in [1, 2] {
            t[0].send(dst, pkt(0), 0.0, &mut Recorder::default());
        }
        assert!(t[0].has_unacked(), "0 → 1 keeps its frame");
        t[0].pump(0.0, &mut Recorder::default()).unwrap();
        assert_eq!(t[0].retransmits, 1, "only 0 → 1 is retried");
        assert!(data_frames(&rxs[1]).is_empty(), "0 → 1 drops every attempt");
        // The receiver of the lossy link acks; the lossless 0 → 2 and the
        // reverse 1 → 0 post nothing.
        for (seq, pkt) in data_frames(&rxs[2]) {
            t[2].on_data(seq, pkt, 0.0, &mut Recorder::default());
        }
        t[1].on_data(0, pkt(0), 0.0, &mut Recorder::default());
        t[0].on_data(0, pkt(1), 0.0, &mut Recorder::default());
        assert_eq!(acks(&rxs[0]), [(1, 0)]);
        assert!(acks(&rxs[1]).is_empty());
        t[0].on_ack(1, 0);
        assert!(!t[0].has_unacked());
    }

    /// Verdicts and retries carry the caller's time; a dropped duplicate
    /// carries its own arrival.
    #[test]
    fn records_verdict_retransmit_and_dup_events() {
        let (txs, _rxs) = wires(2);
        let mut t = Transport::new(0, Arc::new(plan_dropping_first()), &txs);
        let mut log = Recorder::new(true, false);
        let seq = t.send(
            1,
            out_pkt(0, 7, 0.0, 1, Arc::new(vec![1i32])),
            1.0,
            &mut log,
        );
        let seq = seq.expect("a faulted plan sequences");
        assert_eq!(seq, 0);
        t.pump(2.0, &mut log).unwrap();
        // Stale duplicate on the receive side of the same transport.
        t.expected[1] = 5;
        let dup = out_pkt(1, 7, 3.5, 1, Arc::new(vec![0i32]));
        assert!(t.on_data(2, dup, 9.0, &mut log).is_empty());
        let got: Vec<(f64, EventKind)> = (log.decode(0.0).1)
            .into_iter()
            .map(|e| (e.ts_ns, e.kind))
            .collect();
        let verdict = "drop";
        assert_eq!(
            got,
            [
                (
                    1.0,
                    EventKind::FaultVerdict {
                        dst: 1,
                        seq,
                        verdict
                    }
                ),
                (
                    2.0,
                    EventKind::Retransmit {
                        dst: 1,
                        seq,
                        attempt: 1
                    }
                ),
                (3.5, EventKind::DupDrop { src: 1, seq: 2 }),
            ]
        );
        assert_eq!((t.retransmits, t.dup_drops), (1, 1));
    }

    /// Under recovery a frame to a possible victim is in the replay log by
    /// the time it is on the wire, with the delayed arrival the wire copy
    /// carries.
    #[test]
    fn a_logged_frame_precedes_its_wire_copy_with_the_same_arrival() {
        let (txs, rxs) = wires(2);
        let plan = FaultPlan::new(3).with_delay(1.0, 500.0).with_crash(1, 99);
        let mut t = Transport::new(0, Arc::new(plan), &txs);
        let rec = Arc::new(RecoveryState::new(2));
        t.attach_log(Arc::clone(&rec), false);
        assert!(t.logs_to(1));
        t.send(
            1,
            out_pkt(0, 7, 10.0, 2, Arc::new(vec![1i32, 2])),
            0.0,
            &mut Recorder::default(),
        );
        let logged = rec.clone_log(1);
        let wire = data_frames(&rxs[1]);
        assert_eq!((logged.len(), wire.len()), (1, 1));
        assert_eq!(logged[0].0, wire[0].0);
        assert!(logged[0].1.arrival_ns > 10.0, "the delay was drawn");
        assert_eq!(logged[0].1.arrival_ns, wire[0].1.arrival_ns);
    }

    /// A respawned sender re-sends its interrupted epoch under sequence
    /// numbers the destination's log still holds: each repeat replaces its
    /// entry, so retained words, the run-wide total and its high-water mark
    /// count it once. New numbers — and the same number from another
    /// sender — still append.
    #[test]
    fn a_respawned_senders_frames_are_logged_once() {
        let (txs, _rxs) = wires(3);
        let rec = Arc::new(RecoveryState::new(3));
        let plan = Arc::new(lossy_but_clean().with_crash_at_recv(2, 99));
        let logging = |me, next_seq| {
            let mut t = Transport::new(me, Arc::clone(&plan), &txs);
            t.attach_log(Arc::clone(&rec), false);
            t.next_seq[2] = next_seq;
            t
        };
        let send = |t: &mut Transport, words| {
            t.send(
                2,
                out_pkt(t.me, 7, 0.0, words, Arc::new(())),
                0.0,
                &mut Recorder::default(),
            );
        };
        let (mut a, mut b) = (logging(0, 5), logging(1, 5));
        let boundary = a.snapshot();
        send(&mut a, 8);
        send(&mut a, 4);
        send(&mut b, 2);
        assert_eq!(rec.stats().log_high_water_words, 14);
        // Sender 0 respawns from its boundary: 5 and 6 again, then 7.
        let mut a = logging(0, 0);
        a.restore(boundary);
        send(&mut a, 8);
        send(&mut a, 4);
        assert_eq!(rec.stats().log_high_water_words, 14);
        assert_eq!(rec.clone_log(2).len(), 3);
        send(&mut a, 1);
        assert_eq!(rec.clone_log(2).len(), 4);
        assert_eq!(rec.stats().log_high_water_words, 15);
        // The boundary releases exactly what was retained.
        assert_eq!(rec.truncate_log(2, &[7, 6, 0]), (15, 1));
        // A repeat of a frame the boundary dropped is not retained again.
        send(&mut logging(0, 6), 4);
        assert_eq!(rec.truncate_log(2, &[8, 6, 0]), (1, 0));
    }

    /// Each frame's kind on a ring, in order: `None` for a raw frame, the
    /// sequence number of a sequenced one, and acks apart.
    fn frames_on(rx: &FrameReceiver) -> (Vec<Option<u64>>, Vec<(usize, u64)>) {
        let (mut data, mut acks) = (Vec::new(), Vec::new());
        while let Some(f) = rx.try_recv() {
            match f {
                Frame::Raw(_) => data.push(None),
                Frame::Data { seq, .. } => data.push(Some(seq)),
                Frame::Ack { from, seq } => acks.push((from, seq)),
                Frame::Poison(_) => panic!("no poison in a transport test"),
            }
        }
        (data, acks)
    }

    /// Under a crash-only plan with one lossy override, each link travels
    /// as the table says. Processor 1 may crash; 2 → 3 may drop. One data
    /// and one control frame per link, recovery attached.
    #[test]
    fn only_a_victims_links_are_sequenced_and_only_frames_to_it_logged() {
        let lossy = crate::fault::LinkFaults {
            drop_p: f64::MIN_POSITIVE,
            ..Default::default()
        };
        let plan = Arc::new(FaultPlan::new(0).with_crash(1, 99).with_link(2, 3, lossy));
        let (txs, rxs) = wires(4);
        let rec = Arc::new(RecoveryState::new(4));
        let mut t: Vec<Transport> = (0..4)
            .map(|me| {
                let mut t = Transport::new(me, Arc::clone(&plan), &txs);
                t.attach_log(Arc::clone(&rec), false);
                t
            })
            .collect();
        let both = |t: &mut [Transport], src: usize, dst: usize| {
            let pkt = || out_pkt(src, 7, 0.0, 1, Arc::new(vec![1i32]));
            let seq = t[src].send(dst, pkt(), 0.0, &mut Recorder::default());
            t[src].send_control(dst, pkt(), 0.0, &mut Recorder::default());
            seq
        };
        // Survivor ↔ survivor: raw both ways, kept nowhere.
        assert_eq!((both(&mut t, 0, 3), both(&mut t, 3, 0)), (None, None));
        assert_eq!(frames_on(&rxs[3]), (vec![None, None], vec![]));
        assert_eq!(frames_on(&rxs[0]), (vec![None, None], vec![]));
        // From the victim: sequenced, so its re-sends are deduplicated,
        // but never logged — no survivor replays.
        assert_eq!(both(&mut t, 1, 0), Some(0));
        assert_eq!(frames_on(&rxs[0]), (vec![Some(0), Some(1)], vec![]));
        assert!(rec.clone_log(0).is_empty());
        // To the victim: sequenced and logged, control frame included.
        assert_eq!(both(&mut t, 0, 1), Some(0));
        assert_eq!(frames_on(&rxs[1]), (vec![Some(0), Some(1)], vec![]));
        let logged: Vec<u64> = rec.clone_log(1).iter().map(|(s, _)| *s).collect();
        assert_eq!(logged, [0, 1]);
        // The lossy survivor link: sequenced, kept and acknowledged, not
        // logged; its reverse is raw.
        assert_eq!(both(&mut t, 2, 3), Some(0));
        assert!(t[2].has_unacked());
        assert!(rec.clone_log(3).is_empty());
        assert_eq!(both(&mut t, 3, 2), None);
        assert_eq!(frames_on(&rxs[2]), (vec![None, None], vec![]));
        for (seq, pkt) in data_frames(&rxs[3]) {
            let mut ready = t[3].on_data(seq, pkt, 0.0, &mut Recorder::default());
            ready.clear();
            t[3].recycle(ready);
        }
        assert_eq!(frames_on(&rxs[2]), (vec![], vec![(3, 0), (3, 1)]));
        // A pooled send freezes exactly on the victim's links.
        let freezes: Vec<(usize, usize)> = (0..4)
            .flat_map(|s| (0..4).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d && t[s].freezes_to(d))
            .collect();
        assert_eq!(freezes, [(0, 1), (1, 0), (1, 2), (1, 3), (2, 1), (3, 1)]);
        // Without recovery a victim's link still sequences data, but
        // control frames travel raw and nothing is logged or frozen.
        let mut bare = Transport::new(0, Arc::clone(&plan), &txs);
        let pkt = || out_pkt(0, 7, 0.0, 1, Arc::new(vec![1i32]));
        assert_eq!(bare.send(1, pkt(), 0.0, &mut Recorder::default()), Some(0));
        bare.send_control(1, pkt(), 0.0, &mut Recorder::default());
        assert_eq!(frames_on(&rxs[1]), (vec![Some(0), None], vec![]));
        assert!(!bare.logs_to(1) && !bare.freezes_to(1));
        assert_eq!(rec.clone_log(1).len(), 2);
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
        let mut t = Transport::new(0, Arc::new(plan), &txs);
        let seqs = |rx| -> Vec<u64> { data_frames(rx).iter().map(|(s, _)| *s).collect() };
        t.send(
            1,
            out_pkt(0, 7, 1.0, 1, Arc::new(vec![1i32])),
            0.0,
            &mut Recorder::default(),
        );
        assert_eq!(seqs(&rxs[1]), [0u64; 0], "held back");
        t.pump(0.0, &mut Recorder::default()).unwrap();
        assert_eq!(seqs(&rxs[1]), [0], "the retry overtakes it");
        t.on_ack(1, 0);
        assert!(!t.has_unacked());
        t.send(
            1,
            out_pkt(0, 7, 2.0, 1, Arc::new(vec![2i32])),
            0.0,
            &mut Recorder::default(),
        );
        assert_eq!(seqs(&rxs[1]), [1, 0], "due after two transmissions");
    }

    #[test]
    fn receiver_orders_and_deduplicates() {
        let (txs, _rxs) = wires(2);
        let mut t = Transport::new(0, Arc::new(lossy_but_clean()), &txs);
        let pkt = |v: i32| out_pkt(1, 7, 0.0, 1, Arc::new(vec![v]));
        // seq 1 arrives early: buffered.
        assert!(t
            .on_data(1, pkt(1), 0.0, &mut Recorder::default())
            .is_empty());
        // duplicate of seq 1: dropped.
        assert!(t
            .on_data(1, pkt(1), 0.0, &mut Recorder::default())
            .is_empty());
        assert_eq!(t.dup_drops, 1);
        // seq 0 arrives: both become deliverable, in order.
        let ready = t.on_data(0, pkt(0), 0.0, &mut Recorder::default());
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
        assert!(t
            .on_data(0, pkt(0), 0.0, &mut Recorder::default())
            .is_empty());
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
        let mut t = Transport::new(0, Arc::new(plan), &txs);
        t.send(
            1,
            out_pkt(0, 7, 0.0, 1, Arc::new(vec![1i32])),
            0.0,
            &mut Recorder::default(),
        );
        let err = loop {
            if let Err(e) = t.pump(0.0, &mut Recorder::default()) {
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
        /// and step counters and its retry diagnostics: over an arbitrary
        /// send/receive history, a fresh
        /// transport restored from the snapshot must re-snapshot
        /// identically and carry no in-flight state (the boundary flush
        /// guarantees the original had none either), and restoring *over*
        /// in-flight state must clear it.
        #[test]
        fn transport_snapshot_restore_roundtrip(
            sends in proptest::collection::vec((0usize..3, 1usize..5), 0..30),
            recvs in proptest::collection::vec((0usize..3, 1u64..4), 0..20),
            steps in (0u64..50, 0u64..50),
            retries in (0u64..50, 0u64..50),
        ) {
            let (txs, _rxs) = wires(3);
            // Lossy links, so that the sends leave in-flight state behind.
            let mut t = Transport::new(0, Arc::new(lossy_but_clean()), &txs);
            for &(dst, words) in &sends {
                t.send(dst, out_pkt(0, 7, 1e6, words, Arc::new(vec![1i32; words])), 0.0, &mut Recorder::default());
            }
            for &(src, n) in &recvs {
                for _ in 0..n {
                    let seq = t.expected[src];
                    let pkt = out_pkt(src, 7, 0.0, 1, Arc::new(Vec::<i32>::new()));
                    t.on_data(seq, pkt, 0.0, &mut Recorder::default());
                }
            }
            (t.send_steps, t.recv_steps) = steps;
            (t.retransmits, t.dup_drops) = retries;
            let snap = t.snapshot();

            let mut fresh = Transport::new(0, Arc::new(lossy_but_clean()), &txs);
            fresh.restore(snap.clone());
            proptest::prop_assert_eq!(&fresh.snapshot(), &snap);
            proptest::prop_assert!(fresh.unacked.is_empty());
            proptest::prop_assert!(fresh.reorder.iter().all(|r| r.is_empty()));
            proptest::prop_assert!(fresh.holdback.iter().all(|h| h.is_empty()));

            // Restoring over live in-flight state clears it too: the
            // respawned re-execution re-sends under the same sequence
            // numbers and the replay log re-supplies incoming frames.
            t.restore(snap.clone());
            proptest::prop_assert!(t.unacked.is_empty());
            proptest::prop_assert_eq!(&t.snapshot(), &snap);
        }
    }
}
