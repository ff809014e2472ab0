//! Typed message transport between virtual processors.
//!
//! Each processor owns one unbounded MPSC channel; every other processor
//! holds a sender clone. Messages are matched on `(source, tag)`;
//! out-of-order arrivals (possible because different sources interleave) are
//! buffered in a per-processor mailbox. Per-source FIFO order is guaranteed
//! by the channel, so `(source, tag)` plus deterministic phase structure is
//! enough to disambiguate every algorithm in this workspace.
//!
//! Payloads travel as `Arc<dyn Any>`: the sender wraps the value once, and
//! every party that needs to keep it — the reliable transport's retransmit
//! buffer, a broadcast fan-out, a pooled send slot — holds a refcount
//! instead of a deep copy. The typed receive unwraps the `Arc` when it is
//! the last holder (the fault-free common case) and only falls back to
//! [`Payload::clone_payload`] when the transport still holds the buffer for
//! a possible retransmission; those rare copies are surfaced through the
//! `payload.clone_words` metric.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::Words;
use crate::obs::{MemAccount, ProcMetrics};

/// A sender-side memory charge riding with a packet: the payload's bytes
/// are added to the owning sender's `mem.payload.cur` gauge on creation
/// and released when the *last* holder of the charge drops — wire copies,
/// the retransmit buffer, the crash-recovery replay log, and mailbox
/// checkpoints all share it by refcount, so the payload is charged exactly
/// once, at the owning sender, for exactly as long as any copy is alive.
pub(crate) struct PayloadCharge {
    released: Arc<AtomicU64>,
    bytes: u64,
}

impl PayloadCharge {
    /// Charge `bytes` to the payload account of `metrics`, releasing on
    /// drop. Only a charge can raise the peak and only the owner charges,
    /// so the releases since the last one are folded in here.
    pub(crate) fn new(metrics: &mut ProcMetrics, bytes: u64) -> Self {
        let released = metrics.payload_released.swap(0, Ordering::Relaxed);
        let gauge = &mut metrics.mem[MemAccount::Payload as usize];
        gauge.set(gauge.last.saturating_sub(released) + bytes);
        PayloadCharge {
            released: Arc::clone(&metrics.payload_released),
            bytes,
        }
    }
}

impl Drop for PayloadCharge {
    fn drop(&mut self) {
        self.released.fetch_add(self.bytes, Ordering::Relaxed);
    }
}

/// Plain-old-data element that can travel in a message.
///
/// `WORDS` is the element's size in 4-byte machine words — the unit the cost
/// model's `μ` is charged per. The paper's arrays hold 4-byte elements, so
/// `i32::WORDS == 1`, while an `(index, value)` pair costs 2 words, which is
/// exactly how Section 6.4.1 counts the simple-scheme message size `2·E_i`.
pub trait Wire: Copy + Send + Sync + std::fmt::Debug + 'static {
    /// Size of one element in 4-byte words.
    const WORDS: Words;
}

macro_rules! impl_wire {
    ($($t:ty => $w:expr),* $(,)?) => {
        $(impl Wire for $t { const WORDS: Words = $w; })*
    };
}

impl_wire! {
    u8 => 1,   // sub-word payloads still pay a word on the wire
    bool => 1,
    i32 => 1,
    u32 => 1,
    f32 => 1,
    i64 => 2,
    u64 => 2,
    f64 => 2,
    usize => 2,
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const WORDS: Words = A::WORDS + B::WORDS;
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const WORDS: Words = A::WORDS + B::WORDS + C::WORDS;
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    const WORDS: Words = T::WORDS * N;
}

/// A payload that knows its own size on the wire.
///
/// Blanket-implemented for `Vec<T: Wire>`; message-format structs (e.g. the
/// compact message scheme's segment stream) implement it directly so that
/// the charged volume matches the paper's accounting exactly.
pub trait Payload: Send + Sync + 'static {
    /// Message volume in 4-byte words.
    fn wire_words(&self) -> Words;

    /// A type-erased copy of the payload. Only used when a typed receive
    /// finds the `Arc` still shared (the transport is holding the buffer
    /// for a possible retransmission); implementations are one
    /// `Box::new(self.clone())` line.
    fn clone_payload(&self) -> Box<dyn Any + Send>;
}

impl<T: Wire> Payload for Vec<T> {
    fn wire_words(&self) -> Words {
        self.len() * T::WORDS
    }

    fn clone_payload(&self) -> Box<dyn Any + Send> {
        Box::new(self.clone())
    }
}

impl Payload for () {
    fn wire_words(&self) -> Words {
        0
    }

    fn clone_payload(&self) -> Box<dyn Any + Send> {
        Box::new(())
    }
}

/// `Arc<P>` is itself a payload: cloning is a refcount bump, so fan-out
/// paths (broadcast) wrap their buffer once and share it across all child
/// sends while each packet still carries a unique outer value.
impl<P: Payload> Payload for Arc<P> {
    fn wire_words(&self) -> Words {
        (**self).wire_words()
    }

    fn clone_payload(&self) -> Box<dyn Any + Send> {
        Box::new(Arc::clone(self))
    }
}

/// One in-flight message.
pub struct Packet {
    /// Sender's global processor id.
    pub src: usize,
    /// Algorithm-chosen tag; disambiguates concurrent conversations.
    pub tag: u64,
    /// Simulated time at which the message is fully available at the
    /// receiver (`sender_time_at_send + τ + μ·words`). Zero-cost for
    /// self-messages.
    pub arrival_ns: f64,
    /// Charged message volume.
    pub words: Words,
    /// The payload, shared by refcount with any party that must keep it
    /// (retransmit buffer, pooled slot); downcast by the typed receive.
    pub data: Arc<dyn Any + Send + Sync>,
    /// Memory-accounting charge against the sender's payload gauge, shared
    /// by every copy of the packet and released when the last drops. `None`
    /// when the sending machine has no metrics (or the send is free:
    /// self-sends, zero-word messages, pooled slots charged to `pool`).
    pub(crate) charge: Option<Arc<PayloadCharge>>,
}

/// Cloning a packet bumps the payload refcount — the property the crash
/// recovery replay log (DESIGN.md §12) relies on to retain frames
/// for one epoch at a refcount bump per frame.
impl Clone for Packet {
    fn clone(&self) -> Self {
        Packet {
            src: self.src,
            tag: self.tag,
            arrival_ns: self.arrival_ns,
            words: self.words,
            data: Arc::clone(&self.data),
            charge: self.charge.clone(),
        }
    }
}

/// What actually travels on a processor's channel: either a data packet
/// (raw under a benign [`crate::fault::FaultPlan`], sequence-numbered under
/// any other) or control traffic. Control frames model the CM-5's separate
/// control network: they are never fault-injected, never charged, and never
/// counted as application traffic.
pub(crate) enum Frame {
    /// An unsequenced packet: data on a link that neither faults nor has
    /// a possible crash victim at either end, and uncharged control traffic
    /// unless crash recovery runs on a sequenced link.
    Raw(Packet),
    /// A sequence-numbered data packet on the reliable transport. `seq`
    /// orders all data from one sender, across tags.
    Data {
        /// Per-link sequence number, starting at 0.
        seq: u64,
        /// The packet itself.
        pkt: Packet,
    },
    /// Control-network acknowledgement of `Data { seq }` from processor
    /// `from`.
    Ack {
        /// The acknowledging processor (the data packet's destination).
        from: usize,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Abort broadcast: some processor failed with the carried error; all
    /// receivers must stop at once, naming it as their cause.
    Poison(crate::error::MachineError),
}

/// Multiply-rotate hasher for the mailbox's `(src, tag)` keys. Both words
/// come from the SPMD program, never from outside input, so SipHash's
/// resistance to crafted collisions buys nothing on a path every held
/// packet crosses twice.
#[derive(Default, Clone, Copy)]
struct LaneHasher(u64);

impl Hasher for LaneHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-processor mailbox buffering packets that arrived before the matching
/// `recv` was posted. Held packets are indexed by `(src, tag)` so matching
/// is O(1) regardless of how many unrelated packets are queued; each lane
/// is FIFO, preserving per-source channel order. A lane allocates nothing
/// until its first packet and then grows to the depth its traffic needs;
/// it is kept (empty) after draining, so steady-state traffic over a fixed
/// set of pairs never re-allocates. Cloning (epoch checkpointing) copies
/// the index but shares every payload by refcount.
#[derive(Default, Clone)]
pub(crate) struct Mailbox {
    lanes: HashMap<(usize, u64), VecDeque<Packet>, BuildHasherDefault<LaneHasher>>,
    held: usize,
}

impl Mailbox {
    /// Take the earliest held packet matching `(src, tag)`, if any.
    pub(crate) fn take(&mut self, src: usize, tag: u64) -> Option<Packet> {
        let p = self.lanes.get_mut(&(src, tag))?.pop_front()?;
        self.held -= 1;
        Some(p)
    }

    /// Stash a non-matching packet for a later receive.
    pub(crate) fn hold(&mut self, p: Packet) {
        self.held += 1;
        self.lanes.entry((p.src, p.tag)).or_default().push_back(p);
    }

    /// Number of held packets (used by the driver to detect leftover traffic).
    pub(crate) fn len(&self) -> usize {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_match_paper_accounting() {
        // A packed element is one word...
        assert_eq!(<i32 as Wire>::WORDS, 1);
        // ...and a (rank, value) pair is two words: the simple-scheme message
        // of E_i elements is 2*E_i words (Section 6.4.1).
        assert_eq!(<(i32, i32) as Wire>::WORDS, 2);
        assert_eq!(<(u32, u32, i32) as Wire>::WORDS, 3);
        assert_eq!(<[i32; 4] as Wire>::WORDS, 4);
    }

    #[test]
    fn vec_payload_words() {
        let v: Vec<(i32, i32)> = vec![(1, 2); 5];
        assert_eq!(v.wire_words(), 10);
        let e: Vec<i32> = vec![];
        assert_eq!(e.wire_words(), 0);
        // An Arc-wrapped payload charges the inner buffer's volume.
        assert_eq!(Arc::new(v).wire_words(), 10);
    }

    fn pkt(src: usize, tag: u64, order: f64) -> Packet {
        Packet {
            src,
            tag,
            arrival_ns: order,
            words: 0,
            data: Arc::new(Vec::<i32>::new()),
            charge: None,
        }
    }

    #[test]
    fn mailbox_matches_src_and_tag_fifo() {
        let mut m = Mailbox::default();
        m.hold(pkt(1, 7, 0.0));
        m.hold(pkt(2, 7, 0.0));
        m.hold(pkt(1, 7, 1.0));
        assert!(m.take(1, 8).is_none());
        assert!(m.take(3, 7).is_none());
        let p = m.take(1, 7).unwrap();
        assert_eq!((p.src, p.tag), (1, 7));
        assert_eq!(m.len(), 2);
        assert!(m.take(2, 7).is_some());
        assert!(m.take(1, 7).is_some());
        assert_eq!(m.len(), 0);
    }

    /// Regression test for the O(n) linear-scan `take`: with ~10k
    /// mismatched packets queued ahead, matching must stay keyed (this test
    /// runs in milliseconds on the indexed mailbox, seconds on the scan)
    /// and per-lane FIFO order must be preserved.
    #[test]
    fn deep_mailbox_preserves_per_lane_fifo_order() {
        let mut m = Mailbox::default();
        // 10_000 mismatched packets spread over many (src, tag) lanes.
        for i in 0..10_000usize {
            m.hold(pkt(100 + (i % 97), 1000 + (i % 53) as u64, i as f64));
        }
        // Interleave three lanes we care about, four deep each.
        for round in 0..4 {
            for src in [3usize, 5, 8] {
                m.hold(pkt(src, 42, round as f64));
            }
        }
        assert_eq!(m.len(), 10_012);
        // Each lane drains in hold order despite the noise.
        for src in [3usize, 5, 8] {
            for round in 0..4 {
                let p = m.take(src, 42).expect("lane packet present");
                assert_eq!((p.src, p.tag), (src, 42));
                assert_eq!(p.arrival_ns, round as f64);
            }
            assert!(m.take(src, 42).is_none());
        }
        // The noise lanes also drain FIFO.
        let p1 = m.take(100, 1000).unwrap();
        let p2 = m.take(100, 1000).unwrap();
        assert!(p1.arrival_ns < p2.arrival_ns);
        assert_eq!(m.len(), 9_998);
    }

    /// A lane costs nothing until used and little after: 512 lanes that
    /// each held one packet once retain the hash index (at most 1024
    /// buckets of key + empty-lane header) plus the four-slot minimum
    /// `VecDeque` allocation per lane — under 320 bytes a lane, where the
    /// 16-slot pre-reserve pinned 16 packets' worth (896 bytes) per lane
    /// before the index.
    #[test]
    fn single_use_lanes_retain_bounded_memory() {
        const LANES: usize = 512;
        let mut m = Mailbox::default();
        for src in 0..LANES {
            m.hold(pkt(src, 9, 0.0));
        }
        for src in 0..LANES {
            assert!(m.take(src, 9).is_some());
        }
        assert_eq!(m.len(), 0);
        let index = m.lanes.capacity() * std::mem::size_of::<((usize, u64), VecDeque<Packet>)>();
        let slots: usize = m.lanes.values().map(VecDeque::capacity).sum();
        let retained = index + slots * std::mem::size_of::<Packet>();
        assert!(
            retained <= LANES * 320,
            "{retained} bytes retained by {LANES} drained lanes"
        );
        // The retained-capacity rule: re-use of a drained lane does not
        // grow it again.
        m.hold(pkt(3, 9, 0.0));
        assert_eq!(
            m.lanes.values().map(VecDeque::capacity).sum::<usize>(),
            slots
        );
    }

    proptest::proptest! {
        /// Epoch checkpointing snapshots the mailbox by `Clone`: over an
        /// arbitrary hold/take history, the clone must drain exactly like
        /// the original — same packets, same per-lane FIFO order — while
        /// sharing every payload by refcount.
        #[test]
        fn mailbox_clone_drains_identically(
            ops in proptest::collection::vec(
                (0usize..4, 0u64..3, proptest::arbitrary::any::<bool>()), 0..60),
        ) {
            let mut m = Mailbox::default();
            let mut n = 0u32;
            for (i, &(src, tag, take)) in ops.iter().enumerate() {
                if take {
                    m.take(src, tag);
                } else {
                    n += 1;
                    m.hold(pkt(src, tag, i as f64));
                }
            }
            let mut snap = m.clone();
            proptest::prop_assert_eq!(snap.len(), m.len());
            // Drain both in an identical order and compare every packet.
            for &(src, tag, _) in &ops {
                for _ in 0..n {
                    match (m.take(src, tag), snap.take(src, tag)) {
                        (None, None) => break,
                        (Some(a), Some(b)) => {
                            proptest::prop_assert_eq!(a.src, b.src);
                            proptest::prop_assert_eq!(a.tag, b.tag);
                            proptest::prop_assert_eq!(a.arrival_ns, b.arrival_ns);
                            proptest::prop_assert!(Arc::ptr_eq(&a.data, &b.data),
                                "clone must share payloads, not copy them");
                        }
                        (a, b) => proptest::prop_assert!(
                            false, "drains diverged: {:?} vs {:?}",
                            a.map(|p| (p.src, p.tag)), b.map(|p| (p.src, p.tag))),
                    }
                }
            }
            proptest::prop_assert_eq!(m.len(), snap.len());
        }
    }
}
