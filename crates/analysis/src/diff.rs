//! Cross-revision perf regression detection: compare two versioned perf
//! reports workload-by-workload and flag simulated-metric regressions.
//!
//! Only *simulated* quantities are compared — `total_ms`, the per-category
//! `stages_ms`, `words`, `startups`, and the `memory` group's measured and
//! predicted peak bytes. These are exactly reproducible
//! run-to-run, so any delta is a real behavioural change in the code, not
//! machine noise. `wall_ms` (harness wall-clock) is deliberately ignored:
//! it varies with load and would make the gate flaky.
//!
//! A workload present in the old report but absent from the new one is a
//! hard failure regardless of thresholds — losing coverage must never
//! look like a win.

use crate::json::Json;

/// One compared metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Workload name, e.g. `"pack.css.w1"`.
    pub workload: String,
    /// Metric name, e.g. `"total_ms"` or `"stages_ms.m2m"`.
    pub metric: String,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Relative change in percent; positive = regression (all compared
    /// metrics are bigger-is-worse). Infinite when `old` is zero and
    /// `new` is not.
    pub delta_pct: f64,
}

/// The full comparison of two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-metric rows, in report order.
    pub rows: Vec<DiffRow>,
    /// Workloads (`"pack.css.w1"`) and single compared metrics
    /// (`"pack.css.w1 memory.measured_peak_bytes"`) present in the old
    /// report but missing from the new — always a failure.
    pub missing: Vec<String>,
    /// Workloads new in the new report (informational).
    pub added: Vec<String>,
}

/// Scalar metrics compared on every workload, besides the stage breakdown.
const SCALARS: [&str; 3] = ["total_ms", "words", "startups"];

/// Metrics compared inside a workload's `memory` object (schema v6+).
const MEMORY: [&str; 2] = ["measured_peak_bytes", "predicted_peak_bytes"];

impl DiffReport {
    /// Compare two parsed perf reports (any schema version carrying a
    /// `workloads` array of named entries). Reports up to schema v10 name a
    /// `mode`; two of different modes are an error, not a comparison.
    pub fn from_reports(old: &Json, new: &Json) -> Result<DiffReport, String> {
        let old_w = workloads(old, "old")?;
        let new_w = workloads(new, "new")?;
        let (om, nm) = (mode(old), mode(new));
        if om != nm {
            return Err(format!(
                "old report is `{om}`, new report is `{nm}`: workload sizes differ, \
                 nothing to compare"
            ));
        }

        let mut rows = Vec::new();
        let mut missing = Vec::new();
        for (name, ow) in &old_w {
            let Some(nw) = new_w.iter().find(|(n, _)| n == name).map(|(_, w)| w) else {
                missing.push(name.clone());
                continue;
            };
            // Every compared metric the old entry carries: scalars, the stage
            // breakdown, and the (simulated, deterministic) peak-memory bytes.
            let stages = ow.get("stages_ms").and_then(Json::as_obj).unwrap_or(&[]);
            let metrics = (SCALARS.iter().map(|m| m.to_string()))
                .chain(stages.iter().map(|(k, _)| format!("stages_ms.{k}")))
                .chain(MEMORY.iter().map(|m| format!("memory.{m}")));
            for metric in metrics {
                match (num(ow, &metric), num(nw, &metric)) {
                    (Some(o), Some(n)) => rows.push(row(name, &metric, o, n)),
                    (Some(_), None) => missing.push(format!("{name} {metric}")),
                    (None, _) => {}
                }
            }
        }
        let added = new_w
            .iter()
            .filter(|(n, _)| !old_w.iter().any(|(o, _)| o == n))
            .map(|(n, _)| n.clone())
            .collect();
        Ok(DiffReport {
            rows,
            missing,
            added,
        })
    }

    /// The worst regression across all rows, percent (0 if nothing got
    /// worse).
    pub fn max_regression_pct(&self) -> f64 {
        self.rows.iter().map(|r| r.delta_pct).fold(0.0f64, f64::max)
    }

    /// Gate verdict: failed if any workload or metric disappeared or any
    /// metric regressed by at least `fail_pct` percent.
    pub fn failed(&self, fail_pct: f64) -> bool {
        !self.missing.is_empty() || self.max_regression_pct() >= fail_pct
    }

    /// Render a markdown summary: a delta table of every changed metric
    /// (plus every `total_ms`), flagged against the two thresholds.
    pub fn markdown(&self, warn_pct: f64, fail_pct: f64) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for name in &self.missing {
            let _ = writeln!(s, "- **FAIL**: `{name}` missing from new report");
        }
        for name in &self.added {
            let _ = writeln!(s, "- new workload `{name}` (no baseline)");
        }
        s.push_str("\n| workload | metric | old | new | delta | |\n");
        s.push_str("|---|---|---:|---:|---:|---|\n");
        let mut shown = 0usize;
        for r in &self.rows {
            let changed = r.delta_pct.abs() > 1e-9;
            if !(changed || r.metric == "total_ms") {
                continue;
            }
            shown += 1;
            let flag = if r.delta_pct >= fail_pct {
                "FAIL"
            } else if r.delta_pct >= warn_pct {
                "warn"
            } else {
                ""
            };
            let delta = if r.delta_pct.is_infinite() {
                "new>0".to_string()
            } else {
                format!("{:+.2}%", r.delta_pct)
            };
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {delta} | {flag} |",
                r.workload,
                r.metric,
                fmt_val(r.old),
                fmt_val(r.new),
            );
        }
        let _ = writeln!(
            s,
            "\n{} metrics compared, {shown} shown, worst regression {:+.2}%.",
            self.rows.len(),
            self.max_regression_pct()
        );
        s
    }
}

fn row(workload: &str, metric: &str, old: f64, new: f64) -> DiffRow {
    let delta_pct = if old.abs() > 0.0 {
        (new - old) / old * 100.0
    } else if new.abs() > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    DiffRow {
        workload: workload.to_string(),
        metric: metric.to_string(),
        old,
        new,
        delta_pct,
    }
}

/// The number at a dotted path (`"memory.measured_peak_bytes"`) of a
/// workload entry.
fn num(w: &Json, path: &str) -> Option<f64> {
    path.split('.').try_fold(w, |v, key| v.get(key))?.as_f64()
}

/// The sizes a report was run at. Since schema v11 there is one size, the
/// one older reports call `full`, and no `mode` field.
fn mode(report: &Json) -> &str {
    report.get("mode").and_then(Json::as_str).unwrap_or("full")
}

fn fmt_val(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

fn workloads<'a>(report: &'a Json, which: &str) -> Result<Vec<(String, &'a Json)>, String> {
    let arr = report
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{which} report has no workloads array"))?;
    arr.iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(|n| (n.to_string(), w))
                .ok_or_else(|| format!("{which} report has an unnamed workload"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, f64, f64)]) -> Json {
        // (name, total_ms, words); one stage mirrors total for coverage.
        let body: Vec<String> = entries
            .iter()
            .map(|(n, t, w)| {
                format!(
                    r#"{{"name":"{n}","total_ms":{t},"words":{w},"startups":10,
                        "stages_ms":{{"local":{t}}}}}"#
                )
            })
            .collect();
        Json::parse(&format!(
            r#"{{"schema_version":2,"mode":"smoke","workloads":[{}]}}"#,
            body.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_diff_clean() {
        let a = report(&[("pack.sss.w1", 1.5, 4096.0)]);
        let d = DiffReport::from_reports(&a, &a).unwrap();
        assert_eq!(d.max_regression_pct(), 0.0);
        assert!(!d.failed(5.0));
        assert!(d.missing.is_empty() && d.added.is_empty());
    }

    #[test]
    fn regression_is_flagged_and_fails_past_threshold() {
        let old = report(&[("pack.sss.w1", 1.0, 1000.0)]);
        let new = report(&[("pack.sss.w1", 1.2, 1000.0)]);
        let d = DiffReport::from_reports(&old, &new).unwrap();
        assert!((d.max_regression_pct() - 20.0).abs() < 1e-9);
        assert!(d.failed(5.0));
        assert!(!d.failed(25.0));
        let md = d.markdown(5.0, 25.0);
        assert!(md.contains("| pack.sss.w1 | total_ms | 1 | 1.2000 | +20.00% | warn |"));
    }

    #[test]
    fn improvements_never_fail() {
        let old = report(&[("a", 2.0, 100.0)]);
        let new = report(&[("a", 1.0, 50.0)]);
        let d = DiffReport::from_reports(&old, &new).unwrap();
        assert_eq!(d.max_regression_pct(), 0.0);
        assert!(!d.failed(0.01));
    }

    #[test]
    fn missing_workload_is_a_hard_fail() {
        let old = report(&[("a", 1.0, 1.0), ("b", 1.0, 1.0)]);
        let new = report(&[("a", 1.0, 1.0)]);
        let d = DiffReport::from_reports(&old, &new).unwrap();
        assert_eq!(d.missing, vec!["b".to_string()]);
        assert!(d.failed(f64::INFINITY));
        assert!(d.markdown(1.0, 5.0).contains("missing from new report"));
    }

    #[test]
    fn memory_peaks_are_compared() {
        let mk = |measured: u64| {
            Json::parse(&format!(
                r#"{{"schema_version":6,"mode":"smoke","workloads":[
                    {{"name":"memory.pack.cms.w8","total_ms":1.0,"words":1,"startups":1,
                     "stages_ms":{{"local":1.0}},
                     "memory":{{"measured_peak_bytes":{measured},
                                "predicted_peak_bytes":3000,"ratio":1.1,"pass":true}}}}]}}"#
            ))
            .unwrap()
        };
        let d = DiffReport::from_reports(&mk(2000), &mk(2400)).unwrap();
        let peak = d
            .rows
            .iter()
            .find(|r| r.metric == "memory.measured_peak_bytes")
            .expect("memory peak row");
        assert!((peak.delta_pct - 20.0).abs() < 1e-9);
        assert!(d.markdown(5.0, 25.0).contains("memory.measured_peak_bytes"));
    }

    #[test]
    fn a_vanished_metric_is_a_hard_fail() {
        let old = Json::parse(
            r#"{"mode":"smoke","workloads":[
                {"name":"m","total_ms":1.0,"words":1,"startups":1,
                 "stages_ms":{"local":0.5,"m2m":0.5},
                 "memory":{"measured_peak_bytes":2000,"predicted_peak_bytes":3000}}]}"#,
        )
        .unwrap();
        let new = Json::parse(
            r#"{"mode":"smoke","workloads":[
                {"name":"m","total_ms":0.5,"words":1,"startups":1,
                 "stages_ms":{"local":0.5},"memory":null}]}"#,
        )
        .unwrap();
        let d = DiffReport::from_reports(&old, &new).unwrap();
        assert_eq!(
            d.missing,
            [
                "m stages_ms.m2m",
                "m memory.measured_peak_bytes",
                "m memory.predicted_peak_bytes"
            ]
        );
        assert_eq!(d.max_regression_pct(), 0.0, "every surviving row improved");
        assert!(d.failed(f64::INFINITY));
        assert!(d
            .markdown(1.0, 5.0)
            .contains("`m stages_ms.m2m` missing from new report"));
    }

    #[test]
    fn smoke_against_full_is_an_error_not_a_comparison() {
        let smoke = report(&[("a", 1.0, 1.0)]);
        let full = Json::parse(r#"{"mode":"full","workloads":[]}"#).unwrap();
        let modeless = Json::parse(r#"{"schema_version":11,"workloads":[]}"#).unwrap();
        for new in [&full, &modeless] {
            let err = DiffReport::from_reports(&smoke, new).unwrap_err();
            assert!(err.contains("`smoke`") && err.contains("`full`"), "{err}");
        }
        assert!(DiffReport::from_reports(&full, &modeless).is_ok());
    }
}
