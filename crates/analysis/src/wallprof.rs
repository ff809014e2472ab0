//! Wall-clock hotspot attribution — the real-time counterpart of
//! [`crate::critpath`], which ranks *simulated* time.
//!
//! [`HotspotReport`] folds the per-processor [`WallProfile`]s of a
//! profiled run into per-stage *self* time (exclusive: a span's duration
//! minus its direct children), ranked by wall share. Because self time
//! partitions the measured total exactly, the ranked rows always account
//! for 100% of the profiled wall time. Stages that moved bytes also report
//! their effective copy bandwidth.
//!
//! Nothing here gates or compares wall numbers across runs: the repo
//! benchmark (`benchmark/`) owns every wall number a claim is made
//! against, and borrows [`median`] for it.

use std::collections::BTreeMap;

use hpf_machine::WallProfile;

/// Median of a sample set (averaging the middle pair on even sizes).
/// Returns 0 on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One stage's aggregate across all processors of a profiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    /// Span name, e.g. `"place_segments"` or `"pack.execute"`.
    pub stage: String,
    /// Total *exclusive* wall time: span durations minus direct children.
    pub self_ns: u64,
    /// Bytes attributed to this stage via `Proc::wall_bytes`.
    pub bytes: u64,
    /// Number of span instances aggregated.
    pub calls: u64,
}

impl Hotspot {
    /// Effective copy bandwidth in GB/s (bytes per nanosecond), when the
    /// stage both moved bytes and took measurable time.
    pub fn gbps(&self) -> Option<f64> {
        (self.bytes > 0 && self.self_ns > 0).then(|| self.bytes as f64 / self.self_ns as f64)
    }
}

/// Ranked per-stage wall-time attribution for one profiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotspotReport {
    /// Total profiled wall time, summed over processors (root span
    /// durations; equals the sum of all rows' `self_ns`).
    pub total_ns: u64,
    /// Stages ranked by `self_ns` descending (ties broken by name).
    pub hotspots: Vec<Hotspot>,
}

impl HotspotReport {
    /// Aggregate the per-processor profiles of one run: self time, bytes,
    /// and call counts folded per stage name, ranked by self time. Self
    /// time takes one pass per profile: each span's duration comes off its
    /// parent's (saturating — timer granularity can make children sum
    /// slightly past the parent).
    pub fn from_profiles(profiles: &[WallProfile]) -> HotspotReport {
        let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut total_ns = 0u64;
        for p in profiles {
            total_ns += p.total_ns();
            let mut own: Vec<u64> = p.spans.iter().map(|s| s.dur_ns).collect();
            for s in &p.spans {
                if let Some(parent) = s.parent {
                    let parent = &mut own[parent as usize];
                    *parent = parent.saturating_sub(s.dur_ns);
                }
            }
            for (s, own) in p.spans.iter().zip(own) {
                let e = agg.entry(s.name).or_default();
                e.0 += own;
                e.1 += s.bytes;
                e.2 += 1;
            }
        }
        let mut hotspots: Vec<Hotspot> = agg
            .into_iter()
            .map(|(stage, (self_ns, bytes, calls))| Hotspot {
                stage: stage.to_string(),
                self_ns,
                bytes,
                calls,
            })
            .collect();
        hotspots.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.stage.cmp(&b.stage)));
        HotspotReport { total_ns, hotspots }
    }

    /// One stage's share of the total wall time, in [0, 1].
    pub fn share(&self, h: &Hotspot) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            h.self_ns as f64 / self.total_ns as f64
        }
    }

    /// Human-readable ranked table. `elements` scales ns/element (pass the
    /// workload's element count, or 0 to omit).
    pub fn render(&self, title: &str, elements: u64) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "hotspots: {title}  total {:.3} ms",
            self.total_ns as f64 / 1e6,
        );
        for h in &self.hotspots {
            let _ = write!(
                s,
                "  {:<22} {:>9.3} ms  {:>5.1}%  {:>6} calls",
                h.stage,
                h.self_ns as f64 / 1e6,
                self.share(h) * 100.0,
                h.calls,
            );
            if elements > 0 {
                let _ = write!(s, "  {:>8.2} ns/elem", h.self_ns as f64 / elements as f64);
            }
            if let Some(g) = h.gbps() {
                let _ = write!(s, "  {g:>6.2} GB/s");
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{WallProfile, WallSpan};

    #[test]
    fn median_is_robust() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // One wild outlier does not move it.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 500.0]), 10.0);
    }

    #[test]
    fn hotspots_rank_by_self_time_and_partition_the_total() {
        // execute [0, 12 ms) holds gather [0, 10 ms) and decode [10, 11 ms);
        // gather holds copy [1, 7 ms).
        let span = |name, parent: Option<u32>, depth, start_ns, dur_ns, bytes| WallSpan {
            name,
            parent,
            depth,
            start_ns,
            dur_ns,
            bytes,
        };
        let profile = WallProfile {
            spans: vec![
                span("execute", None, 0, 0, 12_000_000, 0),
                span("gather", Some(0), 1, 0, 10_000_000, 4096),
                span("copy", Some(1), 2, 1_000_000, 6_000_000, 0),
                span("decode", Some(0), 1, 10_000_000, 1_000_000, 0),
            ],
            ..WallProfile::default()
        };
        assert_eq!(profile.well_formed(), Ok(()));
        let r = HotspotReport::from_profiles(std::slice::from_ref(&profile));
        let own: Vec<(&str, u64)> = (r.hotspots.iter())
            .map(|h| (h.stage.as_str(), h.self_ns))
            .collect();
        assert_eq!(
            own,
            [
                ("copy", 6_000_000),
                ("gather", 4_000_000),
                ("decode", 1_000_000),
                ("execute", 1_000_000)
            ],
            "a span's self time is its own, not its grandchildren's"
        );
        let self_sum: u64 = r.hotspots.iter().map(|h| h.self_ns).sum();
        assert_eq!(self_sum, r.total_ns, "self time partitions the total");
        let gather = r.hotspots.iter().find(|h| h.stage == "gather").unwrap();
        let decode = r.hotspots.iter().find(|h| h.stage == "decode").unwrap();
        assert!(gather.self_ns > decode.self_ns);
        assert_eq!(gather.bytes, 4096);
        assert!(gather.gbps().is_some());
        let rendered = r.render("test", 1024);
        assert!(rendered.contains("gather"));
        assert!(rendered.contains("GB/s"));
    }
}
