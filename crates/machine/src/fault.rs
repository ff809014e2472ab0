//! Seeded, deterministic fault injection for the simulated network.
//!
//! The two-level model of the paper assumes a perfect crossbar: every
//! `τ + μ·m` send arrives exactly once, in order, and no processor dies.
//! A [`FaultPlan`] deliberately breaks those assumptions — per-link message
//! **drop**, **duplication**, **delay**, and **reordering**, plus an
//! optional **crash** of one processor at a chosen send step — so that the
//! reliable transport (see [`crate::reliable`]) and the graceful-failure
//! machinery can be exercised under any schedule.
//!
//! Every decision is a pure hash of `(seed, src, dst, seq, attempt)`: two
//! runs with the same plan see the *same* faults on the same messages no
//! matter how the OS schedules the processor threads. Retries happen when
//! the machine goes quiescent, not on a timer, so the retry counters are as
//! reproducible as the faults; and they never touch results or simulated
//! clocks: the simulated arrival time of a message (including its injected
//! delay) is drawn once, at first transmission, keyed by sequence number
//! alone.

/// Per-link fault probabilities. All probabilities are clamped to `[0, 1]`
/// at decision time; a default-constructed `LinkFaults` injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability that one transmission attempt is silently dropped.
    pub drop_p: f64,
    /// Probability that one transmission attempt is delivered twice.
    pub dup_p: f64,
    /// Probability that a message's simulated arrival is delayed.
    pub delay_p: f64,
    /// Maximum injected delay, in simulated nanoseconds (drawn uniformly).
    pub max_delay_ns: f64,
    /// Probability that a transmission is held back behind later traffic
    /// on the same link (physical reordering; sequence numbers restore
    /// delivery order at the receiver).
    pub reorder_p: f64,
}

impl LinkFaults {
    /// True iff this configuration can never inject anything.
    pub(crate) fn is_benign(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.delay_p <= 0.0 && self.reorder_p <= 0.0
    }

    /// True iff a frame on this link can be lost or held back — the links
    /// the reliable transport acknowledges. Duplicates and delays cannot
    /// keep a frame from its destination's ring.
    pub(crate) fn is_lossy(&self) -> bool {
        self.drop_p > 0.0 || self.reorder_p > 0.0
    }
}

/// What the injector decided for one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Transmit normally.
    Deliver,
    /// Do not transmit; the sender retries once the machine goes quiescent.
    Drop,
    /// Transmit two copies.
    Duplicate,
    /// Hold this transmission until after the next `n` data transmissions
    /// on the same link (then release).
    HoldBack(u8),
}

impl Verdict {
    /// Short name used in trace annotations (`Deliver` is never annotated).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Verdict::Deliver => "deliver",
            Verdict::Drop => "drop",
            Verdict::Duplicate => "duplicate",
            Verdict::HoldBack(_) => "hold-back",
        }
    }
}

/// A seeded, deterministic schedule of network faults and processor crashes.
///
/// Attach to a machine with [`crate::Machine::with_faults`]; the machine
/// then routes all charged point-to-point traffic over the reliable
/// transport, which recovers from every non-crash fault the plan injects.
///
/// # Example
/// ```
/// use hpf_machine::{CostModel, FaultPlan, Machine, ProcGrid};
/// let plan = FaultPlan::new(42).with_drop(0.2).with_duplicate(0.1).with_reorder(0.15);
/// let machine = Machine::new(ProcGrid::line(2), CostModel::cm5()).with_faults(plan);
/// let out = machine.run(|proc| proc.id());
/// assert_eq!(out.results, vec![0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    everywhere: LinkFaults,
    /// Per-link overrides, looked up before `everywhere`.
    overrides: Vec<((usize, usize), LinkFaults)>,
    /// Crash `proc` when its (1-based) send counter reaches `step`.
    crash: Option<(usize, u64)>,
    /// Crash `proc` when its (1-based) receive counter reaches `step`.
    crash_at_recv: Option<(usize, u64)>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed. Compose with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            everywhere: LinkFaults::default(),
            overrides: Vec::new(),
            crash: None,
            crash_at_recv: None,
        }
    }

    /// Drop each transmission attempt with probability `p`, on every link.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.everywhere.drop_p = p;
        self
    }

    /// Duplicate each transmission with probability `p`, on every link.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.everywhere.dup_p = p;
        self
    }

    /// Delay each message's simulated arrival with probability `p`, by a
    /// uniform draw from `[0, max_delay_ns]`, on every link.
    pub fn with_delay(mut self, p: f64, max_delay_ns: f64) -> Self {
        self.everywhere.delay_p = p;
        self.everywhere.max_delay_ns = max_delay_ns;
        self
    }

    /// Physically reorder transmissions with probability `p`, on every link.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.everywhere.reorder_p = p;
        self
    }

    /// Override the fault configuration of the single link `src → dst`.
    pub fn with_link(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        self.overrides.retain(|((s, d), _)| (*s, *d) != (src, dst));
        self.overrides.push(((src, dst), faults));
        self
    }

    /// Crash processor `proc` when its send counter reaches `step`
    /// (1-based: `step = 1` crashes on the first send).
    pub fn with_crash(mut self, proc: usize, step: u64) -> Self {
        self.crash = Some((proc, step));
        self
    }

    /// Crash processor `proc` when its receive counter reaches `step`
    /// (1-based: `step = 1` crashes on the first posted receive). Covers
    /// processors that only consume — a send-step crash can never fire on
    /// them.
    pub fn with_crash_at_recv(mut self, proc: usize, step: u64) -> Self {
        self.crash_at_recv = Some((proc, step));
        self
    }

    /// The configured crash, if any, as `(proc, send_step)`.
    pub(crate) fn crash(&self) -> Option<(usize, u64)> {
        self.crash
    }

    /// The configured receive-side crash, if any, as `(proc, recv_step)`.
    pub(crate) fn crash_at_recv(&self) -> Option<(usize, u64)> {
        self.crash_at_recv
    }

    /// True iff either crash schedule names processor `p`: the plan's only
    /// possible victims, the only processors a recovery ever respawns.
    pub(crate) fn may_crash(&self, p: usize) -> bool {
        [self.crash, self.crash_at_recv]
            .iter()
            .any(|c| c.is_some_and(|(proc, _)| proc == p))
    }

    /// Faults configured for the link `src → dst`.
    pub(crate) fn link(&self, src: usize, dst: usize) -> LinkFaults {
        self.overrides
            .iter()
            .find(|((s, d), _)| (*s, *d) == (src, dst))
            .map(|(_, f)| *f)
            .unwrap_or(self.everywhere)
    }

    /// True iff no link can ever inject a fault and no crash is scheduled.
    pub(crate) fn is_benign(&self) -> bool {
        self.crash.is_none()
            && self.crash_at_recv.is_none()
            && self.everywhere.is_benign()
            && self.overrides.iter().all(|(_, f)| f.is_benign())
    }

    /// Decide the fate of transmission `attempt` (0 = original send) of
    /// message `seq` on link `src → dst`. Pure function of the arguments.
    pub(crate) fn verdict(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> Verdict {
        let f = self.link(src, dst);
        if self.draw(src, dst, seq, attempt, Salt::Drop) < f.drop_p {
            return Verdict::Drop;
        }
        if self.draw(src, dst, seq, attempt, Salt::Duplicate) < f.dup_p {
            return Verdict::Duplicate;
        }
        if self.draw(src, dst, seq, attempt, Salt::Reorder) < f.reorder_p {
            // Hold behind 1–3 subsequent transmissions.
            let n = 1 + (self.hash(src, dst, seq, attempt, Salt::HoldDepth) % 3) as u8;
            return Verdict::HoldBack(n);
        }
        Verdict::Deliver
    }

    /// The injected simulated delay for message `seq` on `src → dst`, in
    /// nanoseconds. Keyed by sequence number only (not attempt), so the
    /// message's simulated arrival time is identical no matter which
    /// transmission attempt finally gets through.
    pub(crate) fn delay_ns(&self, src: usize, dst: usize, seq: u64) -> f64 {
        let f = self.link(src, dst);
        if f.delay_p <= 0.0 || f.max_delay_ns <= 0.0 {
            return 0.0;
        }
        if self.draw(src, dst, seq, 0, Salt::DelayGate) < f.delay_p {
            self.draw(src, dst, seq, 0, Salt::DelayAmount) * f.max_delay_ns
        } else {
            0.0
        }
    }

    /// Uniform `[0, 1)` draw keyed by the full event coordinates.
    fn draw(&self, src: usize, dst: usize, seq: u64, attempt: u32, salt: Salt) -> f64 {
        // 53 mantissa bits of the hash.
        (self.hash(src, dst, seq, attempt, salt) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn hash(&self, src: usize, dst: usize, seq: u64, attempt: u32, salt: Salt) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((src as u64) << 32 | dst as u64)
            .wrapping_add(seq.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add((attempt as u64) << 8 | salt as u64);
        // SplitMix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

#[derive(Debug, Clone, Copy)]
enum Salt {
    Drop = 1,
    Duplicate = 2,
    Reorder = 3,
    HoldDepth = 4,
    DelayGate = 5,
    DelayAmount = 6,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1).with_drop(0.5);
        let b = FaultPlan::new(1).with_drop(0.5);
        let c = FaultPlan::new(2).with_drop(0.5);
        let va: Vec<_> = (0..64).map(|s| a.verdict(0, 1, s, 0)).collect();
        let vb: Vec<_> = (0..64).map(|s| b.verdict(0, 1, s, 0)).collect();
        let vc: Vec<_> = (0..64).map(|s| c.verdict(0, 1, s, 0)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc, "different seeds should give different schedules");
    }

    #[test]
    fn probabilities_roughly_respected() {
        let plan = FaultPlan::new(7).with_drop(0.2);
        let drops = (0..10_000)
            .filter(|&s| plan.verdict(0, 1, s, 0) == Verdict::Drop)
            .count();
        assert!(
            (1500..2500).contains(&drops),
            "drop rate {drops}/10000 far from 20%"
        );
    }

    #[test]
    fn attempts_draw_independently() {
        let plan = FaultPlan::new(3).with_drop(0.5);
        // Some message dropped at attempt 0 must eventually deliver.
        let seq = (0..1000)
            .find(|&s| plan.verdict(0, 1, s, 0) == Verdict::Drop)
            .expect("a drop exists at 50%");
        let delivered = (1..100).any(|a| plan.verdict(0, 1, seq, a) != Verdict::Drop);
        assert!(delivered);
    }

    #[test]
    fn delay_keyed_by_seq_not_attempt() {
        let plan = FaultPlan::new(9).with_delay(1.0, 1000.0);
        for seq in 0..32 {
            let d = plan.delay_ns(0, 1, seq);
            assert!((0.0..=1000.0).contains(&d));
        }
        assert!((0..32).any(|s| plan.delay_ns(0, 1, s) > 0.0));
    }

    #[test]
    fn per_link_overrides_win() {
        let quiet = LinkFaults::default();
        let plan = FaultPlan::new(5).with_drop(1.0).with_link(2, 3, quiet);
        assert_eq!(plan.verdict(0, 1, 0, 0), Verdict::Drop);
        assert_eq!(plan.verdict(2, 3, 0, 0), Verdict::Deliver);
        assert!(!plan.is_benign());
        assert!(FaultPlan::new(0).is_benign());
        assert!(!FaultPlan::new(0).with_crash(1, 10).is_benign());
        assert!(!FaultPlan::new(0).with_crash_at_recv(1, 3).is_benign());
        assert_eq!(
            FaultPlan::new(0).with_crash_at_recv(1, 3).crash_at_recv(),
            Some((1, 3))
        );
        let both = FaultPlan::new(0).with_crash(2, 1).with_crash_at_recv(0, 4);
        let victims: Vec<usize> = (0..4).filter(|&p| both.may_crash(p)).collect();
        assert_eq!(victims, [0, 2]);
        assert!(!plan.may_crash(2), "a faulty link crashes nothing");
    }
}
