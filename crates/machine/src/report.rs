//! What a run reports: the aggregation of per-processor clock reports into
//! the quantities the paper's tables report — maximum (i.e. critical-path)
//! time per category and in total, in milliseconds — and each processor's
//! metrics in their exported form.

use std::collections::BTreeMap;

use crate::cost::{Category, ClockReport};
use crate::obs::{Event, WallProfile};
use crate::recovery::RecoveryStats;

/// Everything a [`crate::Machine::run`] call produced: per-processor results
/// and per-processor clock reports, both indexed by processor id.
#[derive(Debug, Clone)]
pub struct RunOutput<R> {
    /// Each processor's return value.
    pub results: Vec<R>,
    /// Each processor's final clock snapshot.
    pub clocks: Vec<ClockReport>,
    /// Per-processor category spans (empty unless the machine was built
    /// with tracing enabled).
    pub traces: Vec<Vec<crate::trace::Span>>,
    /// Charged words sent from each source (row) to each destination
    /// (column); self-messages are zero.
    pub comm_matrix: Vec<Vec<u64>>,
    /// Per-processor structured event logs (empty unless the machine was
    /// built with tracing enabled — see [`crate::obs`]).
    pub events: Vec<Vec<Event>>,
    /// Per-processor metric snapshots (empty unless the machine was built
    /// with [`crate::Machine::with_metrics`]).
    pub metrics: Vec<MetricsSnapshot>,
    /// Crash-recovery accounting (`Some` iff the run came from
    /// [`crate::Machine::run_recoverable`]; `replays == 0` when no crash
    /// fired).
    pub recovery: Option<RecoveryStats>,
    /// Per-processor wall-clock profiles (strictly empty unless the machine
    /// was built with [`crate::Machine::with_wall_profiling`] — wall data
    /// never leaks into unprofiled runs).
    pub wall_profiles: Vec<WallProfile>,
}

impl<R> RunOutput<R> {
    pub(crate) fn new(results: Vec<R>, clocks: Vec<ClockReport>) -> Self {
        RunOutput {
            results,
            clocks,
            traces: Vec::new(),
            comm_matrix: Vec::new(),
            events: Vec::new(),
            metrics: Vec::new(),
            recovery: None,
            wall_profiles: Vec::new(),
        }
    }

    /// The heaviest single source→destination flow, as
    /// `(src, dst, words)` — a quick balance diagnostic.
    ///
    /// Ties are broken deterministically: among equally heavy flows, the
    /// lowest `(src, dst)` in lexicographic order wins, so the figure is
    /// stable across runs and fit for perf reports.
    pub fn heaviest_flow(&self) -> Option<(usize, usize, u64)> {
        self.comm_matrix
            .iter()
            .enumerate()
            .flat_map(|(s, row)| row.iter().enumerate().map(move |(d, &w)| (s, d, w)))
            .filter(|&(_, _, w)| w > 0)
            .fold(None, |best: Option<(usize, usize, u64)>, cand| match best {
                Some((_, _, bw)) if bw >= cand.2 => best,
                _ => Some(cand),
            })
    }

    /// Export the run's traces and structured events as Chrome
    /// `trace_event` JSON, loadable in [Perfetto](https://ui.perfetto.dev)
    /// or `chrome://tracing` (see [`crate::obs::chrome_trace_json`]).
    pub fn chrome_trace_json(&self) -> String {
        crate::obs::chrome_trace_json_with_wall(&self.traces, &self.events, &self.wall_profiles)
    }

    /// All processors' metric snapshots merged into one (counters add,
    /// gauges keep maxima). Empty when the machine ran without metrics.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for m in &self.metrics {
            merged.merge(m);
        }
        merged
    }

    /// Total structured events recorded across all processors.
    pub fn total_events(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Coefficient of imbalance of per-processor sent volume:
    /// `max / mean` (1.0 = perfectly balanced; 0.0 if nothing was sent).
    pub fn send_imbalance(&self) -> f64 {
        let totals: Vec<u64> = self.comm_matrix.iter().map(|r| r.iter().sum()).collect();
        let max = totals.iter().copied().max().unwrap_or(0);
        let sum: u64 = totals.iter().sum();
        if sum == 0 {
            return 0.0;
        }
        max as f64 * totals.len() as f64 / sum as f64
    }

    /// Render the traces as a text Gantt chart (see [`crate::trace`]).
    pub fn gantt(&self, cols: usize) -> String {
        crate::trace::render_gantt(&self.traces, cols)
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.clocks.len()
    }

    /// The machine's completion time: the slowest processor's clock, ms.
    pub fn max_time_ms(&self) -> f64 {
        self.clocks.iter().map(|c| c.now_ms()).fold(0.0, f64::max)
    }

    /// Maximum over processors of the time spent in `cat`, ms. This is what
    /// the paper reports per stage (each stage ends with all processors
    /// synchronised, so the stage costs as much as its slowest processor).
    pub fn max_cat_ms(&self, cat: Category) -> f64 {
        self.clocks
            .iter()
            .map(|c| c.cat_ms(cat))
            .fold(0.0, f64::max)
    }

    /// Total message words sent across all processors.
    pub fn total_words_sent(&self) -> u64 {
        self.clocks.iter().map(|c| c.words_sent).sum()
    }

    /// Total elementary operations charged across all processors.
    pub fn total_ops(&self) -> u64 {
        self.clocks.iter().map(|c| c.ops).sum()
    }

    /// Per-processor elementary operations charged to one category —
    /// the measured side of the §6.4 conformance check (cost-model
    /// independent: counts, not times).
    pub fn cat_ops_per_proc(&self, cat: Category) -> Vec<u64> {
        self.clocks.iter().map(|c| c.cat_ops(cat)).collect()
    }

    /// Total message start-ups across all processors.
    pub fn total_startups(&self) -> u64 {
        self.clocks.iter().map(|c| c.startups).sum()
    }

    /// Total reliable-transport retransmissions across all processors
    /// (0 on a machine without a fault plan). A diagnostic of how hard the
    /// transport had to work; simulated time is unaffected.
    pub fn total_retransmits(&self) -> u64 {
        self.clocks.iter().map(|c| c.retransmits).sum()
    }

    /// Total duplicate frames discarded by receivers across all processors
    /// (0 on a machine without a fault plan).
    pub fn total_dup_drops(&self) -> u64 {
        self.clocks.iter().map(|c| c.dup_drops).sum()
    }

    /// Retransmissions per charged message start-up — the chaos harness's
    /// headline retry-overhead figure. Zero when nothing was sent.
    pub fn retry_overhead(&self) -> f64 {
        let startups = self.total_startups();
        if startups == 0 {
            return 0.0;
        }
        self.total_retransmits() as f64 / startups as f64
    }

    /// Full per-category breakdown (max over processors).
    pub fn breakdown(&self) -> Breakdown {
        let mut by_cat = [0.0; Category::ALL.len()];
        for (i, cat) in Category::ALL.iter().enumerate() {
            by_cat[i] = self.max_cat_ms(*cat);
        }
        Breakdown {
            by_cat_ms: by_cat,
            total_ms: self.max_time_ms(),
        }
    }
}

/// Critical-path milliseconds per category plus the overall completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    by_cat_ms: [f64; Category::ALL.len()],
    total_ms: f64,
}

impl Breakdown {
    /// Max-over-processors time for one category, ms.
    pub fn cat_ms(&self, cat: Category) -> f64 {
        self.by_cat_ms[cat.index()]
    }

    /// Machine completion time, ms.
    pub fn total_ms(&self) -> f64 {
        self.total_ms
    }

    /// A compact single-line rendering, e.g. for experiment logs.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for cat in Category::ALL {
            let v = self.cat_ms(cat);
            if v > 0.0 {
                parts.push(format!("{}={:.3}ms", cat.label(), v));
            }
        }
        format!("total={:.3}ms [{}]", self.total_ms, parts.join(" "))
    }
}

/// A gauge's value: the last level set and the highest ever set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeValue {
    /// Last value set.
    pub last: u64,
    /// Maximum value ever set.
    pub max: u64,
}

impl GaugeValue {
    /// Record the instantaneous level `v`.
    pub(crate) fn set(&mut self, v: u64) {
        self.last = v;
        self.max = self.max.max(v);
    }
}

/// All of one processor's metrics, frozen at the end of a run (or the merge
/// of several processors' snapshots).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, GaugeValue>,
}

impl MetricsSnapshot {
    /// Merge `other` into `self`: counters add, gauges keep the overall
    /// maximum (and the maximum of lasts).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_default();
            e.last = e.last.max(v.last);
            e.max = e.max.max(v.max);
        }
    }

    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, SimClock};

    fn report_with(cat: Category, ns: f64, now: f64) -> ClockReport {
        let mut c = SimClock::new(CostModel {
            delta_ns: 1.0,
            tau_ns: 0.0,
            mu_ns: 0.0,
            ..CostModel::zero()
        });
        c.set_category(cat);
        c.charge_ops(ns as usize);
        c.fast_forward(now);
        c.report()
    }

    #[test]
    fn max_over_procs() {
        let out = RunOutput::new(
            vec![(), ()],
            vec![
                report_with(Category::LocalComp, 2e6, 2e6),
                report_with(Category::LocalComp, 4e6, 4e6),
            ],
        );
        assert_eq!(out.max_cat_ms(Category::LocalComp), 4.0);
        assert_eq!(out.max_time_ms(), 4.0);
    }

    #[test]
    fn heaviest_flow_ties_break_to_lowest_src_dst() {
        let mut out = RunOutput::new(vec![(), (), ()], Vec::new());
        // Three flows share the maximum weight 9: (0,2), (1,0), (2,1).
        out.comm_matrix = vec![vec![0, 3, 9], vec![9, 0, 1], vec![2, 9, 0]];
        assert_eq!(out.heaviest_flow(), Some((0, 2, 9)));
        // And with the (0,2) flow lightened, the next-lowest pair wins.
        out.comm_matrix[0][2] = 1;
        assert_eq!(out.heaviest_flow(), Some((1, 0, 9)));
        out.comm_matrix = vec![vec![0; 3]; 3];
        assert_eq!(out.heaviest_flow(), None);
    }

    #[test]
    fn breakdown_summary_mentions_nonzero_categories_only() {
        let out = RunOutput::new(vec![()], vec![report_with(Category::ManyToMany, 1e6, 1e6)]);
        let s = out.breakdown().summary();
        assert!(s.contains("m2m=1.000ms"), "{s}");
        assert!(!s.contains("local"), "{s}");
    }
}
