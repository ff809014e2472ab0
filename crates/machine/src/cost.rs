//! The two-level cost model of Section 2 of the paper, and the per-processor
//! simulated clock that algorithms charge as they run.
//!
//! The model assumes a *virtual crossbar*: the cost of sending a message of
//! `m` words between any two processors is `τ + μ·m`, independent of distance
//! and link congestion, and the cost of one unit of local computation is `δ`.
//! These assumptions "closely model the behavior of the CM-5 on which our
//! experimental results are presented" (paper, Section 2); they also make the
//! simulated timings architecture-independent, which is exactly why the
//! paper's algorithms are portable.

use std::fmt;

/// A *word* is the unit of message volume: one 4-byte array element.
/// Multi-word payloads (index/value pairs, segment headers) count each word.
pub type Words = usize;

/// The machine constants `δ` (local op), `τ` (message start-up) and `μ`
/// (per-word transfer time).
///
/// All times are kept in nanoseconds as `f64`; experiment reports convert to
/// milliseconds to match the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one unit of local computation (one elementary loop body:
    /// a couple of memory accesses plus ALU work), in nanoseconds.
    pub delta_ns: f64,
    /// Message start-up cost `τ`, in nanoseconds.
    pub tau_ns: f64,
    /// Per-word transfer time `μ`, in nanoseconds per 4-byte word.
    pub mu_ns: f64,
    /// Control-network scan start-up, in nanoseconds. The CM-5 has a
    /// dedicated combine/scan network (the paper's footnote 2: with it,
    /// each scan primitive runs in `O(M)` time with a small constant);
    /// these two constants model it for `PrsAlgorithm::Hardware`.
    pub cn_tau_ns: f64,
    /// Control-network per-element scan time, in nanoseconds.
    pub cn_mu_ns: f64,
    /// Crash recovery: fixed cost of restoring a checkpoint on a respawned
    /// processor, in nanoseconds. These three `recovery_*` terms price the
    /// recovery protocol (DESIGN.md §12) for
    /// [`crate::RecoveryStats::replay_ms`] — they
    /// are *never* added to the simulated clock, so a recovered run stays
    /// bit-identical to the fault-free one.
    pub recovery_restore_ns: f64,
    /// Crash recovery: per-replayed-frame re-injection cost (a τ-like
    /// start-up term), in nanoseconds.
    pub recovery_replay_tau_ns: f64,
    /// Crash recovery: per-replayed-word re-injection cost (a μ-like
    /// transfer term), in nanoseconds per 4-byte word.
    pub recovery_replay_mu_ns: f64,
}

impl CostModel {
    /// CM-5-flavoured constants: `τ = 86 µs` start-up (CMMD active-message
    /// era), `μ = 0.5 µs/word` (≈ 8 MB/s per-node sustained), `δ = 0.25 µs`
    /// per elementary local operation (33 MHz SPARC with memory traffic),
    /// and a control network doing one scan in `≈ 4 µs + 1 µs/element`.
    ///
    /// Absolute values only anchor the scale; every comparison in the paper
    /// (scheme crossovers, block-size sensitivity) depends on ratios of
    /// operation counts, which the simulator counts exactly.
    pub fn cm5() -> Self {
        CostModel {
            delta_ns: 250.0,
            tau_ns: 86_000.0,
            mu_ns: 500.0,
            cn_tau_ns: 4_000.0,
            cn_mu_ns: 1_000.0,
            // Recovery terms: a checkpoint restore costs about one τ-scale
            // round trip of bookkeeping; replaying a logged frame is a local
            // re-injection (no wire), priced like a control-network op.
            recovery_restore_ns: 500_000.0,
            recovery_replay_tau_ns: 4_000.0,
            recovery_replay_mu_ns: 1_000.0,
        }
    }

    /// A model in which all charges are free. Useful for tests that check
    /// data movement only.
    pub fn zero() -> Self {
        CostModel {
            delta_ns: 0.0,
            tau_ns: 0.0,
            mu_ns: 0.0,
            cn_tau_ns: 0.0,
            cn_mu_ns: 0.0,
            recovery_restore_ns: 0.0,
            recovery_replay_tau_ns: 0.0,
            recovery_replay_mu_ns: 0.0,
        }
    }

    /// Full transfer time `τ + μ·m` for a message of `m` words.
    #[inline]
    pub(crate) fn msg_ns(&self, words: Words) -> f64 {
        self.tau_ns + self.mu_ns * words as f64
    }

    /// Time for `n` elementary local operations, `δ·n`.
    #[inline]
    pub(crate) fn ops_ns(&self, ops: usize) -> f64 {
        self.delta_ns * ops as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::cm5()
    }
}

/// What a charge is *for*. The paper's Section 7 reports break total
/// execution time into exactly these buckets: local computation, the vector
/// prefix-reduction-sum, and many-to-many personalized communication; the
/// redistribution schemes of Section 6.3 additionally separate communication
/// detection from the redistribution traffic itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Ranking-stage local work plus message composition/decomposition
    /// (what Figure 3 plots).
    LocalComp,
    /// The vector prefix-reduction-sum collective (Section 5.1).
    PrefixReductionSum,
    /// Many-to-many personalized communication in the redistribution stage.
    ManyToMany,
    /// Communication detection for array redistribution (Section 6.3, \[7\]).
    RedistDetect,
    /// Data movement of a preliminary array redistribution (Red.1 / Red.2).
    RedistComm,
    /// Anything else (collective glue, experiment setup inside timed region).
    Other,
}

impl Category {
    /// All categories, in report order.
    pub const ALL: [Category; 6] = [
        Category::LocalComp,
        Category::PrefixReductionSum,
        Category::ManyToMany,
        Category::RedistDetect,
        Category::RedistComm,
        Category::Other,
    ];

    /// Stable index into per-category accumulation arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Category::LocalComp => 0,
            Category::PrefixReductionSum => 1,
            Category::ManyToMany => 2,
            Category::RedistDetect => 3,
            Category::RedistComm => 4,
            Category::Other => 5,
        }
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Category::LocalComp => "local",
            Category::PrefixReductionSum => "prs",
            Category::ManyToMany => "m2m",
            Category::RedistDetect => "detect",
            Category::RedistComm => "redist",
            Category::Other => "other",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-processor simulated clock.
///
/// `now_ns` is the processor's local time. Sending advances the sender by the
/// full transfer time and stamps the packet with its arrival time; receiving
/// advances the receiver to at least the arrival time (the receiver may
/// already be later — then the message was waiting in the network and costs
/// the receiver nothing extra). This is the standard way to realise the
/// paper's two-level model without global synchronisation.
#[derive(Debug, Clone)]
pub struct SimClock {
    model: CostModel,
    now_ns: f64,
    by_cat: [f64; Category::ALL.len()],
    /// Current attribution for subsequent charges.
    category: Category,
    /// Total charged local operations (diagnostics / model validation).
    ops: u64,
    /// Charged local operations per [`Category`]. Pure counters — they never
    /// depend on the cost model, so they measure *work*, not time (the §6.4
    /// conformance checks compare these against the closed-form formulas).
    ops_by_cat: [u64; Category::ALL.len()],
    /// Total charged message words sent (diagnostics).
    words_sent: u64,
    /// Total message start-ups paid (diagnostics).
    startups: u64,
    /// When muted, all charges are suppressed (used to move data that a
    /// modelled hardware unit would carry, then charge the model instead).
    muted: bool,
    /// When tracing, completed category spans plus the start of the open
    /// span.
    trace: Option<(Vec<crate::trace::Span>, f64)>,
}

impl SimClock {
    /// A zeroed clock charging against `model`.
    pub fn new(model: CostModel) -> Self {
        SimClock {
            model,
            now_ns: 0.0,
            by_cat: [0.0; Category::ALL.len()],
            category: Category::Other,
            ops: 0,
            ops_by_cat: [0; Category::ALL.len()],
            words_sent: 0,
            startups: 0,
            muted: false,
            trace: None,
        }
    }

    /// Start recording category spans (see [`crate::trace`]).
    pub(crate) fn enable_trace(&mut self) {
        self.trace = Some((Vec::new(), self.now_ns));
    }

    /// Take the recorded spans, closing the open one at the current time.
    pub(crate) fn take_trace(&mut self) -> Vec<crate::trace::Span> {
        match self.trace.take() {
            Some((mut spans, start)) => {
                if self.now_ns > start {
                    spans.push(crate::trace::Span {
                        category: self.category,
                        start_ns: start,
                        end_ns: self.now_ns,
                    });
                }
                spans
            }
            None => Vec::new(),
        }
    }

    /// The cost model this clock charges against.
    #[inline]
    pub(crate) fn model(&self) -> &CostModel {
        &self.model
    }

    /// Current simulated local time, nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Set the ambient category for subsequent charges; returns the previous
    /// one so callers can restore it.
    pub fn set_category(&mut self, cat: Category) -> Category {
        if cat != self.category {
            if let Some((spans, start)) = self.trace.as_mut() {
                if self.now_ns > *start {
                    spans.push(crate::trace::Span {
                        category: self.category,
                        start_ns: *start,
                        end_ns: self.now_ns,
                    });
                }
                *start = self.now_ns;
            }
        }
        std::mem::replace(&mut self.category, cat)
    }

    /// Charge `n` elementary local operations (`δ·n`) to the ambient category.
    #[inline]
    pub fn charge_ops(&mut self, ops: usize) {
        if self.muted {
            return;
        }
        let ns = self.model.ops_ns(ops);
        self.ops += ops as u64;
        self.ops_by_cat[self.category.index()] += ops as u64;
        self.advance(ns);
    }

    /// Charge one hardware control-network scan over `elems` elements:
    /// `cn_τ + cn_μ·elems` (the paper's footnote 2 — on the CM-5 a scan
    /// primitive runs in `O(M)` time on the dedicated network).
    #[inline]
    pub(crate) fn charge_hw_scan(&mut self, elems: usize) {
        if self.muted {
            return;
        }
        let ns = self.model.cn_tau_ns + self.model.cn_mu_ns * elems as f64;
        self.advance(ns);
    }

    /// Suppress or restore charging; returns the previous state. While
    /// muted, sends, ops, and arrival waits cost nothing.
    pub(crate) fn set_muted(&mut self, muted: bool) -> bool {
        std::mem::replace(&mut self.muted, muted)
    }

    /// Whether charging is currently suppressed.
    #[inline]
    pub(crate) fn is_muted(&self) -> bool {
        self.muted
    }

    /// Charge a message send of `words` words: `τ + μ·words`. Returns the
    /// packet's arrival time at the receiver. Self-messages must not be
    /// charged (see `Proc::send`), mirroring the paper's note that "local
    /// copy was not performed when a processor needed to send a message to
    /// itself".
    #[inline]
    pub(crate) fn charge_send(&mut self, words: Words) -> f64 {
        if self.muted {
            return self.now_ns;
        }
        let ns = self.model.msg_ns(words);
        self.words_sent += words as u64;
        self.startups += 1;
        self.advance(ns);
        self.now_ns
    }

    /// Observe a message arriving at `arrival_ns`: the receiver cannot
    /// proceed before the message exists. Waiting time is attributed to the
    /// ambient category.
    #[inline]
    pub(crate) fn observe_arrival(&mut self, arrival_ns: f64) {
        if self.muted {
            return;
        }
        if arrival_ns > self.now_ns {
            let wait = arrival_ns - self.now_ns;
            self.advance(wait);
        }
    }

    /// Jump this clock forward to `t_ns` if it is behind, *without* charging
    /// any category (used for uncharged clock synchronisation at phase
    /// boundaries).
    #[inline]
    pub(crate) fn fast_forward(&mut self, t_ns: f64) {
        if t_ns > self.now_ns {
            self.now_ns = t_ns;
        }
    }

    #[inline]
    fn advance(&mut self, ns: f64) {
        self.now_ns += ns;
        self.by_cat[self.category.index()] += ns;
    }

    /// Freeze this clock into a report. The transport counters read zero:
    /// the clock does not keep them, and a machine fills them in from each
    /// processor's reliable transport.
    pub fn report(&self) -> ClockReport {
        ClockReport {
            now_ns: self.now_ns,
            by_cat: self.by_cat,
            ops: self.ops,
            ops_by_cat: self.ops_by_cat,
            words_sent: self.words_sent,
            startups: self.startups,
            retransmits: 0,
            dup_drops: 0,
        }
    }

    /// Reset time and counters to zero (model and category are kept).
    pub fn reset(&mut self) {
        self.now_ns = 0.0;
        self.by_cat = [0.0; Category::ALL.len()];
        self.ops = 0;
        self.ops_by_cat = [0; Category::ALL.len()];
        self.words_sent = 0;
        self.startups = 0;
    }
}

/// Immutable snapshot of a processor's simulated clock at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockReport {
    /// Final local time, nanoseconds.
    pub now_ns: f64,
    /// Time attributed to each [`Category`], indexed by `Category::index`.
    pub by_cat: [f64; Category::ALL.len()],
    /// Total elementary operations charged.
    pub ops: u64,
    /// Elementary operations charged per [`Category`], indexed by
    /// `Category::index`. Cost-model independent (counts, not times).
    pub ops_by_cat: [u64; Category::ALL.len()],
    /// Total message words sent (self-messages excluded).
    pub words_sent: u64,
    /// Total message start-ups paid.
    pub startups: u64,
    /// Reliable-transport retransmissions performed (0 without a fault
    /// plan). A diagnostic, not a simulated cost — but, like one, a
    /// function of the program and the fault plan. The processor's
    /// transport owns the count; this and its `transport.retransmits`
    /// metric are read from it once, when the processor retires.
    pub retransmits: u64,
    /// Duplicate frames the reliable transport discarded (0 without a
    /// fault plan); owned and read like `retransmits`.
    pub dup_drops: u64,
}

impl ClockReport {
    /// Time spent in one category, nanoseconds.
    #[inline]
    pub fn cat_ns(&self, cat: Category) -> f64 {
        self.by_cat[cat.index()]
    }

    /// Time spent in one category, milliseconds (the paper's unit).
    #[inline]
    pub fn cat_ms(&self, cat: Category) -> f64 {
        self.cat_ns(cat) / 1e6
    }

    /// Final local time in milliseconds.
    #[inline]
    pub fn now_ms(&self) -> f64 {
        self.now_ns / 1e6
    }

    /// Elementary operations charged to one category.
    #[inline]
    pub(crate) fn cat_ops(&self, cat: Category) -> u64 {
        self.ops_by_cat[cat.index()]
    }

    /// An all-zero report.
    pub fn zero() -> Self {
        ClockReport {
            now_ns: 0.0,
            by_cat: [0.0; Category::ALL.len()],
            ops: 0,
            ops_by_cat: [0; Category::ALL.len()],
            words_sent: 0,
            startups: 0,
            retransmits: 0,
            dup_drops: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_cost_is_tau_plus_mu_m() {
        let m = CostModel {
            delta_ns: 1.0,
            tau_ns: 100.0,
            mu_ns: 2.0,
            ..CostModel::zero()
        };
        assert_eq!(m.msg_ns(0), 100.0);
        assert_eq!(m.msg_ns(10), 120.0);
    }

    #[test]
    fn ops_cost_is_delta_n() {
        let m = CostModel {
            delta_ns: 3.0,
            tau_ns: 0.0,
            mu_ns: 0.0,
            ..CostModel::zero()
        };
        assert_eq!(m.ops_ns(7), 21.0);
    }

    #[test]
    fn clock_accumulates_by_category() {
        let mut c = SimClock::new(CostModel {
            delta_ns: 1.0,
            tau_ns: 10.0,
            mu_ns: 1.0,
            ..CostModel::zero()
        });
        c.set_category(Category::LocalComp);
        c.charge_ops(5);
        c.set_category(Category::ManyToMany);
        c.charge_send(10); // 10 + 10 = 20
        let r = c.report();
        assert_eq!(r.cat_ns(Category::LocalComp), 5.0);
        assert_eq!(r.cat_ns(Category::ManyToMany), 20.0);
        assert_eq!(r.now_ns, 25.0);
        assert_eq!(r.ops, 5);
        assert_eq!(r.words_sent, 10);
        assert_eq!(r.startups, 1);
    }

    #[test]
    fn observe_arrival_only_moves_forward() {
        let mut c = SimClock::new(CostModel::zero());
        c.fast_forward(100.0);
        c.observe_arrival(50.0); // already later: no-op
        assert_eq!(c.now_ns(), 100.0);
        c.observe_arrival(150.0);
        assert_eq!(c.now_ns(), 150.0);
    }

    #[test]
    fn wait_time_is_attributed_to_ambient_category() {
        let mut c = SimClock::new(CostModel::zero());
        c.set_category(Category::PrefixReductionSum);
        c.observe_arrival(42.0);
        assert_eq!(c.report().cat_ns(Category::PrefixReductionSum), 42.0);
    }

    #[test]
    fn fast_forward_charges_nothing() {
        let mut c = SimClock::new(CostModel::cm5());
        c.set_category(Category::LocalComp);
        c.fast_forward(1e9);
        let r = c.report();
        assert_eq!(r.cat_ns(Category::LocalComp), 0.0);
        assert_eq!(r.now_ns, 1e9);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = SimClock::new(CostModel::cm5());
        c.charge_ops(100);
        c.charge_send(100);
        c.reset();
        let r = c.report();
        assert_eq!(r.now_ns, 0.0);
        assert_eq!(r.ops, 0);
        assert_eq!(r.ops_by_cat, [0; Category::ALL.len()]);
        assert_eq!(r.words_sent, 0);
    }

    #[test]
    fn ops_are_counted_per_category_independent_of_model() {
        // Identical op streams under different cost models must produce
        // identical per-category op counts (counts measure work, not time).
        for model in [CostModel::cm5(), CostModel::zero()] {
            let mut c = SimClock::new(model);
            c.set_category(Category::LocalComp);
            c.charge_ops(7);
            c.set_category(Category::PrefixReductionSum);
            c.charge_ops(3);
            c.charge_ops(4);
            let r = c.report();
            assert_eq!(r.cat_ops(Category::LocalComp), 7);
            assert_eq!(r.cat_ops(Category::PrefixReductionSum), 7);
            assert_eq!(r.cat_ops(Category::ManyToMany), 0);
            assert_eq!(r.ops, 14);
        }
    }

    #[test]
    fn category_labels_are_unique() {
        let mut labels: Vec<_> = Category::ALL.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Category::ALL.len());
    }

    #[test]
    fn category_indices_are_a_permutation() {
        let mut idx: Vec<_> = Category::ALL.iter().map(|c| c.index()).collect();
        idx.sort();
        assert_eq!(idx, (0..Category::ALL.len()).collect::<Vec<_>>());
    }
}
