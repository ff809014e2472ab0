//! The perf report (`results/BENCH.json`): one typed value, one
//! serializer, and the gates a report must pass before `repro` renders it.
//!
//! Every field is a function of the commit — simulated time, traffic,
//! operation and copy-op counts, memory bytes — so two runs of one
//! commit render byte-identical files. Host time is not in here; the repo
//! benchmark (`benchmark/`) owns every wall number.
//!
//! A report is a list of [`Entry`]s. Each carries the simulated
//! [`Measurement`] every workload has, plus the one [`Section`] its group
//! measures. [`Report::render`] goes through [`hpf_analysis::Json`], which
//! is also what the tests parse, so writer and readers cannot disagree
//! about the format. [`GATES`] are the cross-field conditions a healthy
//! report satisfies; each has a unit test below that feeds it a hand-built
//! entry violating exactly it.

use hpf_analysis::conformance::ConformancePhases;
use hpf_analysis::{Conformance, CritPath, Json, PeakMemory, MEM_RATIO_GATE};
use hpf_machine::{Category, RecoveryStats};

use crate::{Measurement, ReuseMeasurement};

/// Schema version of the emitted JSON (bump on breaking field changes).
pub const SCHEMA_VERSION: u64 = 15;

/// The workload groups, in report order, each with the JSON key of the
/// [`Section`] its entries carry.
pub const GROUPS: [(&str, Option<&str>); 8] = [
    ("pack", Some("conformance")),
    ("redist", None),
    ("unpack", Some("conformance")),
    ("plan_reuse", Some("reuse")),
    ("recovery", Some("recovery")),
    ("apps", None),
    ("memory", Some("memory")),
    ("scale", None),
];

/// What a workload measures beyond its simulated [`Measurement`].
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// Nothing more (`redist`, `apps`, `scale`).
    None,
    /// Section 6.4 op-count conformance, phase-resolved (`pack`, `unpack`).
    Conformance(Conformance),
    /// Plan-once / execute-N against N full calls (`plan_reuse`).
    Reuse(ReuseMeasurement),
    /// Replay accounting of a run that met its hazard and came through
    /// bit-identical (`recovery`): a crash recovered, or — the `.faulted`
    /// rows — a lossy network retransmitted over. Only such a run has one,
    /// so there is no `recovered` flag.
    Recovery(RecoveryStats),
    /// Predicted against measured peak memory (`memory`).
    Memory(PeakMemory),
}

impl Section {
    /// The section keys of an entry's JSON object, in order; all but the
    /// entry's own are `null`.
    const KEYS: [&'static str; 4] = ["conformance", "reuse", "recovery", "memory"];

    /// This section's JSON key.
    pub fn key(&self) -> Option<&'static str> {
        match self {
            Section::None => None,
            Section::Conformance(_) => Some("conformance"),
            Section::Reuse(_) => Some("reuse"),
            Section::Recovery(_) => Some("recovery"),
            Section::Memory(_) => Some("memory"),
        }
    }

    /// This section as the report writes it.
    pub fn to_json(&self) -> Json {
        match self {
            Section::None => Json::Null,
            Section::Conformance(c) => {
                // Plan / execute attribution, summed over processors.
                let phase = |ops: fn(&ConformancePhases) -> &Vec<u64>| -> Json {
                    let phases = c.phases.as_ref();
                    phases.map(|p| ops(p).iter().sum::<u64>()).into()
                };
                Json::obj([
                    ("scheme", c.scheme.as_str().into()),
                    ("predicted_ops", c.predicted_total().into()),
                    ("measured_ops", c.measured_total().into()),
                    ("predicted_plan_ops", phase(|p| &p.predicted_plan)),
                    ("predicted_execute_ops", phase(|p| &p.predicted_execute)),
                    ("measured_plan_ops", phase(|p| &p.measured_plan)),
                    ("measured_execute_ops", phase(|p| &p.measured_execute)),
                    ("rel_error", c.rel_error.into()),
                    ("pass", c.pass.into()),
                ])
            }
            Section::Reuse(r) => Json::obj([
                ("executes", r.executes.into()),
                ("fresh_total_ms", r.fresh.total_ms.into()),
                ("cached_total_ms", r.cached.total_ms.into()),
                ("fresh_per_exec_ms", r.fresh_per_exec_ms().into()),
                ("cached_per_exec_ms", r.cached_per_exec_ms().into()),
                ("ratio", r.reuse_ratio().into()),
                (
                    "copy_ops",
                    Json::obj([
                        ("contig", r.copy_ops.contig.into()),
                        ("scatter", r.copy_ops.scatter.into()),
                        ("bulk_elements", r.copy_ops.bulk_elements.into()),
                        ("total_elements", r.copy_ops.total_elements.into()),
                        ("bulk_fraction", r.copy_ops.bulk_fraction().into()),
                    ]),
                ),
            ]),
            Section::Recovery(r) => Json::obj([
                ("epochs", r.epochs.into()),
                ("replays", r.replays.into()),
                ("replayed_frames", r.replayed_frames.into()),
                ("replay_log_high_water_words", r.log_high_water_words.into()),
                ("replay_ms", r.replay_ms.into()),
            ]),
            Section::Memory(p) => Json::obj([
                ("scheme", p.scheme.as_str().into()),
                ("measured_peak_bytes", p.measured_bytes.into()),
                ("predicted_peak_bytes", p.predicted_bytes.into()),
                ("ratio", p.ratio.into()),
                ("peak_proc", p.peak_proc.into()),
                ("peak_account", p.peak_account.as_str().into()),
                ("peak_stage", p.peak_stage.as_str().into()),
                ("ring_bytes", p.ring_bytes.into()),
                ("ring_exact", p.ring_exact.into()),
                ("pass", p.pass.into()),
            ]),
        }
    }
}

/// One workload of the report.
#[derive(Debug)]
pub struct Entry {
    /// Workload name, e.g. `"pack.css.w1"`.
    pub name: String,
    /// One of [`GROUPS`].
    pub group: &'static str,
    /// Global array shape.
    pub shape: Vec<usize>,
    /// Processor grid.
    pub grid: Vec<usize>,
    /// Block size, for the workloads that are block-cyclic over one.
    pub w: Option<usize>,
    /// Mask density, for the masked workloads.
    pub density: Option<f64>,
    /// Simulated stage times, total and traffic.
    pub m: Measurement,
    /// Critical-path summary of the traced run, where one was traced.
    pub critpath: Option<CritPath>,
    /// What this workload's group measures.
    pub section: Section,
}

impl Entry {
    fn to_json(&self) -> Json {
        let m = &self.m;
        let stages = Category::ALL.iter().zip(m.stages_ms);
        let critpath = self.critpath.as_ref().map(|cp| {
            let (top, top_ns) = cp.top_stage().unwrap_or(("", 0.0));
            Json::obj([
                ("total_ms", cp.total_ms().into()),
                ("busy_ms", cp.busy_ms().into()),
                ("transfer_ms", cp.transfer_ms().into()),
                ("hops", cp.hops.into()),
                ("barriers", cp.barriers.into()),
                ("imbalance", cp.imbalance().into()),
                ("top_stage", top.into()),
                ("top_stage_ms", (top_ns / 1e6).into()),
            ])
        });
        let mut fields = vec![
            ("name", self.name.as_str().into()),
            ("group", self.group.into()),
            ("shape", self.shape.iter().copied().collect()),
            ("grid", self.grid.iter().copied().collect()),
            ("w", self.w.into()),
            ("density", self.density.into()),
            (
                "stages_ms",
                Json::Obj(
                    stages
                        .map(|(c, ms)| (c.label().into(), ms.into()))
                        .collect(),
                ),
            ),
            ("total_ms", m.total_ms.into()),
            ("size", m.size.into()),
            ("words", m.words.into()),
            ("startups", m.startups.into()),
            ("retransmits", m.retransmits.into()),
            ("dup_drops", m.dup_drops.into()),
            ("retry_overhead", m.retry_overhead.into()),
            ("critpath", critpath.into()),
        ];
        let own = self.section.key();
        fields.extend(Section::KEYS.map(|key| {
            let section = if Some(key) == own {
                self.section.to_json()
            } else {
                Json::Null
            };
            (key, section)
        }));
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// A whole perf report.
#[derive(Debug)]
pub struct Report {
    /// The workloads, in registry order.
    pub entries: Vec<Entry>,
}

impl Report {
    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("cost_model", "cm5".into()),
            (
                "workloads",
                Json::Arr(self.entries.iter().map(Entry::to_json).collect()),
            ),
        ])
    }

    /// The bytes of `results/BENCH.json`: one field of each workload per line.
    pub fn render(&self) -> String {
        self.to_json().render(3)
    }

    /// Every gate violation, one line each naming the workload and the
    /// gate and ending in the offending entry as written; empty for a
    /// healthy report.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in &self.entries {
            let mut fail = |gate: &str, what: &str| {
                let entry = e.to_json().render(0);
                out.push(format!(
                    "{}: gate `{gate}` failed: {what}: {}",
                    e.name,
                    entry.trim_end()
                ));
            };
            for (gate, what, holds) in GATES {
                if !holds(e) {
                    fail(gate, what);
                }
            }
        }
        out
    }

    /// `Err` holding every gate violation, one per line.
    pub fn gated(&self) -> Result<(), String> {
        let violations = self.violations();
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("\n"))
        }
    }
}

/// `Σ stages_ms / total_ms` may exceed 1 by the load imbalance between the
/// per-category argmax processors: a few percent for the synchronized
/// kernels, up to ~16 % measured for the data-dependent `apps` (sample
/// sort), which get the looser bound.
fn stage_slack(group: &str) -> f64 {
    if group == "apps" {
        1.35
    } else {
        1.15
    }
}

/// A named condition every entry of a healthy report satisfies:
/// `(name, what a failure means, predicate)`.
pub type Gate = (&'static str, &'static str, fn(&Entry) -> bool);

/// The gates, entry by entry. DESIGN.md §9.3 lists exactly these.
pub const GATES: [Gate; 14] = [
    (
        "group_has_its_section",
        "the entry does not carry exactly the section its group measures",
        |e| {
            GROUPS
                .iter()
                .any(|&(g, key)| g == e.group && key == e.section.key())
        },
    ),
    (
        // Each stage time is a per-category max over processors, so none
        // can exceed the critical-path total (the max of the sums).
        "stage_within_total",
        "a stage time exceeds total_ms",
        |e| {
            e.m.stages_ms
                .iter()
                .all(|&s| s <= e.m.total_ms * 1.001 + 1e-9)
        },
    ),
    (
        "stages_bracket_total",
        "sum(stages_ms) is outside [1, slack] x total_ms (slack 1.15, apps 1.35)",
        |e| {
            let (sum, total) = (e.m.stages_ms.iter().sum::<f64>(), e.m.total_ms);
            sum >= total * 0.999 - 1e-9 && sum <= total * stage_slack(e.group) + 1e-9
        },
    ),
    (
        "conformance_passes",
        "measured op counts drifted from the Section 6.4 model",
        |e| !matches!(&e.section, Section::Conformance(c) if !c.pass),
    ),
    (
        "conformance_phases_tile",
        "plan + execute op counts do not add up to the totals",
        |e| {
            let Section::Conformance(c) = &e.section else {
                return true;
            };
            let sum = |v: &[u64]| v.iter().sum::<u64>();
            c.phases.as_ref().is_some_and(|p| {
                sum(&p.predicted_plan) + sum(&p.predicted_execute) == c.predicted_total()
                    && sum(&p.measured_plan) + sum(&p.measured_execute) == c.measured_total()
            })
        },
    ),
    (
        "recovery_replayed",
        "the scheduled crash never fired (no replay)",
        |e| {
            !matches!(&e.section, Section::Recovery(r)
                if r.replays == 0 && !e.name.ends_with(".faulted"))
        },
    ),
    (
        // A lossy plan that drew no drop and no duplicate measured nothing.
        "faulted_was_lossy",
        "a .faulted workload retransmitted nothing or dropped no duplicate",
        |e| !(e.name.ends_with(".faulted") && (e.m.retransmits == 0 || e.m.dup_drops == 0)),
    ),
    (
        // Only frames to a possible crash victim are logged: a crash row
        // whose log stayed empty retained nothing to replay, and a row with
        // no crash scheduled that retained anything kept what no replay
        // can read.
        "recovery_log_was_live",
        "replay-log high-water is 0 on a crash row, or not 0 on a .faulted row",
        |e| {
            !matches!(&e.section, Section::Recovery(r)
                if (r.log_high_water_words == 0) != e.name.ends_with(".faulted"))
        },
    ),
    (
        "reuse_amortizes",
        "a held plan's amortized cost exceeds 0.6 of a full call's",
        |e| !matches!(&e.section, Section::Reuse(r) if r.reuse_ratio().is_nan() || r.reuse_ratio() > 0.6),
    ),
    (
        "memory_was_measured",
        "measured peak is 0: memory tracking recorded no charge",
        |e| !matches!(&e.section, Section::Memory(p) if p.measured_bytes == 0),
    ),
    (
        "memory_bound_holds",
        "the predicted peak under-estimates the measured one",
        |e| !matches!(&e.section, Section::Memory(p) if p.predicted_bytes < p.measured_bytes),
    ),
    (
        "memory_bound_is_tight",
        "predicted / measured peak exceeds MEM_RATIO_GATE",
        |e| !matches!(&e.section, Section::Memory(p) if p.ratio.is_nan() || p.ratio > MEM_RATIO_GATE),
    ),
    (
        "memory_ring_exact",
        "mailbox-ring accounting is not byte-exact",
        |e| !matches!(&e.section, Section::Memory(p) if !p.ring_exact),
    ),
    (
        "memory_passes",
        "the memory verdict is a fail",
        |e| !matches!(&e.section, Section::Memory(p) if !p.pass),
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_core::CopyStats;

    /// Simulated numbers that pass every gate.
    fn measurement() -> Measurement {
        Measurement {
            stages_ms: [0.5, 0.25, 0.25, 0.0, 0.0, 0.0],
            total_ms: 1.0,
            size: 100,
            words: 400,
            startups: 24,
            retransmits: 0,
            dup_drops: 0,
            retry_overhead: 0.0,
        }
    }

    fn entry(name: &str, group: &'static str, section: Section) -> Entry {
        Entry {
            name: name.into(),
            group,
            shape: vec![256],
            grid: vec![4],
            w: Some(8),
            density: Some(0.5),
            m: measurement(),
            critpath: None,
            section,
        }
    }

    /// Names of the gates `e` fails, alone in a report.
    fn broken(e: Entry) -> Vec<String> {
        let report = Report { entries: vec![e] };
        let gate = |line: String| line.split('`').nth(1).expect("names its gate").to_string();
        report.violations().into_iter().map(gate).collect()
    }

    fn with_m(group: &'static str, edit: impl FnOnce(&mut Measurement)) -> Entry {
        let mut e = entry("pack.red1", group, Section::None);
        edit(&mut e.m);
        e
    }

    fn conformance(edit: impl FnOnce(&mut Conformance)) -> Entry {
        let ops: (&[u64], &[u64]) = (&[20, 25], &[10, 15]);
        let mut c = Conformance::evaluate_split("pack.sss", ops, ops, 0.0);
        edit(&mut c);
        entry("pack.sss.w8", "pack", Section::Conformance(c))
    }

    fn recovery(edit: impl FnOnce(&mut RecoveryStats)) -> Entry {
        let mut r = RecoveryStats {
            epochs: 16,
            replays: 1,
            replayed_frames: 3,
            replayed_words: 30,
            log_high_water_words: 120,
            replay_ms: 0.2,
        };
        edit(&mut r);
        entry("recovery.pack.sss", "recovery", Section::Recovery(r))
    }

    fn reuse(edit: impl FnOnce(&mut ReuseMeasurement)) -> Entry {
        let mut r = ReuseMeasurement {
            executes: 16,
            fresh: Measurement {
                total_ms: 16.0,
                ..measurement()
            },
            cached: Measurement {
                total_ms: 8.0,
                ..measurement()
            },
            copy_ops: CopyStats {
                contig: 4,
                scatter: 1,
                bulk_elements: 89,
                total_elements: 100,
            },
        };
        edit(&mut r);
        entry("plan_reuse.pack.sss.w8", "plan_reuse", Section::Reuse(r))
    }

    fn memory(edit: impl FnOnce(&mut PeakMemory)) -> Entry {
        let mut p = PeakMemory {
            scheme: "pack.sss".into(),
            predicted_bytes: 1100,
            measured_bytes: 1000,
            ratio: 1.1,
            peak_proc: 0,
            peak_account: "pool".into(),
            peak_stage: "pack.execute".into(),
            ring_bytes: 4096,
            ring_exact: true,
            pass: true,
        };
        edit(&mut p);
        entry("memory.pack.sss.w8", "memory", Section::Memory(p))
    }

    #[test]
    fn healthy_entries_of_every_group_pass_every_gate() {
        let healthy = [
            with_m("redist", |_| {}),
            with_m("apps", |_| {}),
            with_m("scale", |_| {}),
            conformance(|_| {}),
            recovery(|_| {}),
            reuse(|_| {}),
            memory(|_| {}),
        ];
        for e in healthy {
            let group = e.group;
            assert_eq!(broken(e), [""; 0], "{group}");
        }
    }

    #[test]
    fn group_has_its_section() {
        for group in ["recovery", "memory", "plan_reuse", "pack"] {
            let bare = entry("x", group, Section::None);
            assert_eq!(broken(bare), ["group_has_its_section"], "{group}");
        }
        let foreign = Entry {
            group: "scale",
            ..reuse(|_| {})
        };
        assert_eq!(broken(foreign), ["group_has_its_section"]);
        assert_eq!(GROUPS.map(|(_, key)| key).iter().flatten().count(), 5);
    }

    #[test]
    fn stage_within_total() {
        // One stage at 1.01 x total; the other stages keep the sum inside
        // its bracket so only this gate trips.
        let e = with_m("redist", |m| m.stages_ms = [1.01, 0.05, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(broken(e), ["stage_within_total"]);
    }

    #[test]
    fn stages_bracket_total() {
        let at = |group, sum: f64| {
            with_m(group, |m| {
                m.stages_ms = [sum / 2.0, sum / 2.0, 0.0, 0.0, 0.0, 0.0]
            })
        };
        assert_eq!(broken(at("redist", 0.99)), ["stages_bracket_total"]);
        assert_eq!(broken(at("redist", 1.16)), ["stages_bracket_total"]);
        assert_eq!(broken(at("redist", 1.15)), [""; 0]);
        assert_eq!(
            broken(at("apps", 1.16)),
            [""; 0],
            "apps get the looser bound"
        );
        assert_eq!(broken(at("apps", 1.36)), ["stages_bracket_total"]);
    }

    #[test]
    fn conformance_passes() {
        assert_eq!(
            broken(conformance(|c| c.pass = false)),
            ["conformance_passes"]
        );
    }

    #[test]
    fn conformance_phases_tile() {
        let gate = ["conformance_phases_tile"];
        assert_eq!(broken(conformance(|c| c.predicted[0] += 1)), gate);
        assert_eq!(broken(conformance(|c| c.measured[1] -= 1)), gate);
        assert_eq!(broken(conformance(|c| c.phases = None)), gate);
    }

    #[test]
    fn recovery_replayed() {
        assert_eq!(broken(recovery(|r| r.replays = 0)), ["recovery_replayed"]);
    }

    #[test]
    fn faulted_was_lossy() {
        let faulted = |retransmits, dup_drops| {
            let mut e = recovery(|r| (r.replays, r.log_high_water_words) = (0, 0));
            e.name.push_str(".faulted");
            (e.m.retransmits, e.m.dup_drops) = (retransmits, dup_drops);
            broken(e)
        };
        assert_eq!(faulted(0, 3), ["faulted_was_lossy"]);
        assert_eq!(faulted(3, 0), ["faulted_was_lossy"]);
        assert_eq!(faulted(3, 3), [""; 0], "crash-free: no replay is owed");
    }

    #[test]
    fn recovery_log_was_live() {
        let e = recovery(|r| r.log_high_water_words = 0);
        assert_eq!(broken(e), ["recovery_log_was_live"]);
        // A row with no crash scheduled must retain nothing.
        let faulted = |words| {
            let mut e = recovery(|r| (r.replays, r.log_high_water_words) = (0, words));
            e.name.push_str(".faulted");
            (e.m.retransmits, e.m.dup_drops) = (1, 1);
            e
        };
        assert_eq!(broken(faulted(0)), [""; 0]);
        assert_eq!(broken(faulted(120)), ["recovery_log_was_live"]);
    }

    #[test]
    fn reuse_amortizes() {
        assert_eq!(
            broken(reuse(|r| r.cached.total_ms = 9.7)),
            ["reuse_amortizes"]
        );
        assert_eq!(broken(reuse(|r| r.cached.total_ms = 9.6)), [""; 0]);
    }

    #[test]
    fn memory_was_measured() {
        let e = memory(|p| (p.measured_bytes, p.ratio) = (0, 1.0));
        assert_eq!(broken(e), ["memory_was_measured"]);
    }

    #[test]
    fn memory_bound_holds() {
        let e = memory(|p| (p.predicted_bytes, p.ratio) = (999, 0.999));
        assert_eq!(broken(e), ["memory_bound_holds"]);
    }

    #[test]
    fn memory_bound_is_tight() {
        let e = memory(|p| (p.predicted_bytes, p.ratio) = (1300, MEM_RATIO_GATE + 0.05));
        assert_eq!(broken(e), ["memory_bound_is_tight"]);
        let e = memory(|p| (p.predicted_bytes, p.ratio) = (1250, MEM_RATIO_GATE));
        assert_eq!(broken(e), [""; 0]);
    }

    #[test]
    fn memory_ring_exact() {
        assert_eq!(
            broken(memory(|p| p.ring_exact = false)),
            ["memory_ring_exact"]
        );
    }

    #[test]
    fn memory_passes() {
        assert_eq!(broken(memory(|p| p.pass = false)), ["memory_passes"]);
    }

    #[test]
    fn every_gate_has_a_distinct_name() {
        let mut names: Vec<&str> = GATES.iter().map(|g| g.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GATES.len());
    }

    /// What `repro` prints instead of the report when a gate fails: every
    /// violation, naming its workload and its gate.
    #[test]
    fn gated_names_the_workload_and_the_gate() {
        let healthy = Report {
            entries: vec![reuse(|_| {})],
        };
        assert!(healthy.gated().is_ok());
        let report = Report {
            entries: vec![reuse(|_| {}), reuse(|r| r.cached.total_ms = 9.7)],
        };
        let err = report.gated().unwrap_err();
        assert_eq!(err.lines().count(), 1, "{err}");
        let named = "plan_reuse.pack.sss.w8: gate `reuse_amortizes` failed";
        assert!(err.starts_with(named), "{err}");
    }

    /// DESIGN.md §9.3's gate table and [`GATES`] agree: every backticked
    /// name in the table's first column is a gate, every gate is named, and
    /// every row names one.
    #[test]
    fn design_doc_lists_exactly_the_gates() {
        let doc = include_str!("../../../DESIGN.md");
        let section = doc
            .split("### 9.3 ")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("DESIGN.md has a section 9.3");
        let rows: Vec<Vec<&str>> = section
            .lines()
            .filter(|l| l.starts_with("| `"))
            .map(|l| {
                let cell = l.split('|').nth(1).expect("a table row has a first cell");
                cell.split('`').skip(1).step_by(2).collect()
            })
            .collect();
        assert!(rows.iter().all(|names| !names.is_empty()), "{rows:?}");
        let mut documented: Vec<&str> = rows.concat();
        let mut gates: Vec<&str> = GATES.iter().map(|g| g.0).collect();
        documented.sort_unstable();
        gates.sort_unstable();
        assert_eq!(documented, gates);
    }

    #[test]
    fn rendered_report_parses_back_to_what_was_built() {
        let mut named = with_m("apps", |_| {});
        named.name = "a\"b\\".into();
        let report = Report {
            entries: vec![named, reuse(|_| {})],
        };
        let text = report.render();
        let back = Json::parse(&text).expect("rendered report is JSON");
        assert_eq!(back, report.to_json());
        // An escaped string, a null section beside a present one, and the
        // one-field-per-line layout; nothing that names a commit or a mode.
        assert_eq!(back.get("schema_version"), Some(&Json::Num(15.0)));
        assert!(back.get("rev").is_none() && back.get("mode").is_none());
        let w = back.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(w[0].get("name").and_then(Json::as_str), Some("a\"b\\"));
        assert_eq!(w[0].get("reuse"), Some(&Json::Null));
        let copy_ops = w[1].get("reuse").and_then(|r| r.get("copy_ops"));
        let bulk = copy_ops.and_then(|c| c.get("bulk_fraction"));
        assert_eq!(bulk, Some(&Json::Num(0.89)));
        assert!(text.contains("\n      \"shape\": [256],\n"), "{text}");
    }
}
