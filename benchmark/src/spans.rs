//! The traced pass's span store: the benchmark's own spans around each
//! public call (recorded through `Proc::wall_span`, so they nest with the
//! spans the library already records) plus driver-side spans around whole
//! machine runs, flattened into one list and reduced to per-layer times.
//!
//! Every processor is its own timeline (`start_ns` counts from that
//! processor's profiler origin; the driver's from the child's start), so a
//! span's self time only subtracts children on the same timeline. In
//! pinned-serial mode exactly one virtual processor runs at a time, so an
//! op's wall is the *sum* over processors of their running time plus the
//! hand-off gaps between them: layer times are summed over processors, and a
//! processor's time inside `sched.park` — during which the others run — is
//! subtracted from every span that encloses it ("busy" time).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hpf_machine::WallProfile;

/// `proc` of a span recorded on the benchmark's main thread.
pub const DRIVER: i32 = -1;
/// The library's span around every scheduler park.
pub const PARK: &str = "sched.park";
/// The benchmark's root span, on every processor, around one timed op.
pub const OP: &str = "bench.op";
/// The driver-side span around a whole `Machine::run` that is one op.
pub const MACHINE_RUN: &str = "bench.machine_run";

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one: the enclosing span on the same
    /// timeline, or the driver span of the machine run for a root.
    pub parent: Option<usize>,
    /// The timed op this span belongs to; `None` for set-up and warm-up.
    pub op_id: Option<u32>,
    pub proc: i32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// How the root spans of a machine run map to timed ops.
#[derive(Debug, Clone, Copy)]
pub enum OpTag {
    /// Roots named [`OP`] are ops, numbered from 0 in begin order on each
    /// processor; other roots are set-up.
    OpRoots,
    /// The whole run is this one op.
    Whole(u32),
}

/// Summed times of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub count: u64,
    /// Duration minus the park time nested anywhere inside.
    pub busy_ns: u64,
    /// Duration minus direct same-timeline children (parks included).
    pub self_ns: u64,
    /// Bytes the library attributed to these spans.
    pub bytes: u64,
}

/// Per-name layer sums, kept apart for timed ops and for set-up.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub timed: BTreeMap<&'static str, Layer>,
    pub setup: BTreeMap<&'static str, Layer>,
    /// Busy time of the processors' root spans inside timed ops: the time
    /// some virtual processor was running code the spans cover.
    pub root_busy_ns: u64,
}

impl Layers {
    pub fn merge(&mut self, other: &Layers) {
        self.root_busy_ns += other.root_busy_ns;
        for (dst, src) in [
            (&mut self.timed, &other.timed),
            (&mut self.setup, &other.setup),
        ] {
            for (name, l) in src {
                let e = dst.entry(name).or_default();
                e.count += l.count;
                e.busy_ns += l.busy_ns;
                e.self_ns += l.self_ns;
                e.bytes += l.bytes;
            }
        }
    }

    /// Busy time of timed spans whose name satisfies `pick`.
    pub fn busy_ns(&self, pick: impl Fn(&str) -> bool) -> u64 {
        sum(&self.timed, pick, |l| l.busy_ns)
    }

    /// Self time of timed spans whose name satisfies `pick`.
    pub fn self_ns(&self, pick: impl Fn(&str) -> bool) -> u64 {
        sum(&self.timed, pick, |l| l.self_ns)
    }

    /// Number of timed spans whose name satisfies `pick`.
    pub fn count(&self, pick: impl Fn(&str) -> bool) -> u64 {
        sum(&self.timed, pick, |l| l.count)
    }
}

pub fn sum(
    map: &BTreeMap<&'static str, Layer>,
    pick: impl Fn(&str) -> bool,
    field: impl Fn(&Layer) -> u64,
) -> u64 {
    map.iter()
        .filter(|(name, _)| pick(name))
        .map(|(_, l)| field(l))
        .sum()
}

/// A flat list of spans; parents precede their children.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Bytes attributed per span, parallel to `spans`.
    bytes: Vec<u64>,
}

impl Trace {
    /// Record a span of the benchmark's main thread; returns its index.
    pub fn push_driver(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        op_id: Option<u32>,
    ) -> usize {
        self.push(
            Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                op_id,
                proc: DRIVER,
            },
            0,
        )
    }

    /// Append the per-processor profiles of one machine run, caused by the
    /// driver span `cause`.
    pub fn push_profiles(&mut self, profiles: &[WallProfile], cause: Option<usize>, tag: OpTag) {
        for (pid, profile) in profiles.iter().enumerate() {
            let base = self.spans.len();
            let mut next_op = 0u32;
            for s in &profile.spans {
                let (parent, op_id) = match s.parent {
                    Some(p) => {
                        let p = base + p as usize;
                        (Some(p), self.spans[p].op_id)
                    }
                    None => {
                        let op_id = match tag {
                            OpTag::Whole(op) => Some(op),
                            OpTag::OpRoots if s.name == OP => {
                                next_op += 1;
                                Some(next_op - 1)
                            }
                            OpTag::OpRoots => None,
                        };
                        (cause, op_id)
                    }
                };
                self.push(
                    Span {
                        name: s.name,
                        start_ns: s.start_ns,
                        end_ns: s.start_ns + s.dur_ns,
                        parent,
                        op_id,
                        proc: pid as i32,
                    },
                    s.bytes,
                );
            }
        }
    }

    fn push(&mut self, span: Span, bytes: u64) -> usize {
        self.spans.push(span);
        self.bytes.push(bytes);
        self.spans.len() - 1
    }

    /// Every span's self time: its duration minus the durations of its
    /// direct children on the same timeline (which never overlap each other).
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].proc == s.proc {
                    own[p] = own[p].saturating_sub(s.dur_ns());
                }
            }
        }
        own
    }

    /// Reduce to per-name sums.
    pub fn layers(&self) -> Layers {
        let own = self.self_times();
        // Children follow their parents, so one reverse sweep carries each
        // span's nested park time up to its same-timeline ancestors.
        let mut parked = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate().rev() {
            if s.name == PARK {
                parked[i] = s.dur_ns();
            }
            if let Some(p) = s.parent {
                if self.spans[p].proc == s.proc {
                    parked[p] += parked[i];
                }
            }
        }
        let mut out = Layers::default();
        for (i, s) in self.spans.iter().enumerate() {
            let map = if s.op_id.is_some() {
                &mut out.timed
            } else {
                &mut out.setup
            };
            let busy = s.dur_ns().saturating_sub(parked[i]);
            let is_root = s.parent.is_none_or(|p| self.spans[p].proc != s.proc);
            if is_root && s.proc != DRIVER && s.op_id.is_some() {
                out.root_busy_ns += busy;
            }
            let e = map.entry(s.name).or_default();
            e.count += 1;
            e.busy_ns += busy;
            e.self_ns += own[i];
            e.bytes += self.bytes[i];
        }
        out
    }

    /// Folded stacks (flamegraph.pl / inferno input): one
    /// `procN;outer;inner self_ns` line per distinct same-timeline stack.
    pub fn folded(&self) -> String {
        let own = self.self_times();
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if own[i] == 0 {
                continue;
            }
            let mut names = vec![s.name];
            let mut cur = s.parent;
            while let Some(p) = cur {
                if self.spans[p].proc != s.proc {
                    break;
                }
                names.push(self.spans[p].name);
                cur = self.spans[p].parent;
            }
            let root = if s.proc == DRIVER {
                "driver".to_string()
            } else {
                format!("proc{}", s.proc)
            };
            names.reverse();
            *agg.entry(format!("{root};{}", names.join(";")))
                .or_insert(0) += own[i];
        }
        let mut out = String::new();
        for (stack, ns) in agg {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }

    /// The first `limit` spans as a JSON document.
    pub fn to_json(&self, workload: &str, limit: usize) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"timebase\":\"ns; every proc is its own timeline, \
             proc -1 is the benchmark's main thread\",\"spans_total\":{},\"truncated\":{},\
             \"spans\":[",
            self.spans.len(),
            self.spans.len() > limit
        );
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{},\
                 \"proc\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op_id.map(u64::from)),
                s.proc
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::WallSpan;

    fn wall(name: &'static str, parent: Option<u32>, start_ns: u64, dur_ns: u64) -> WallSpan {
        WallSpan {
            name,
            parent,
            depth: 0,
            start_ns,
            dur_ns,
            bytes: 0,
        }
    }

    /// One processor: a 10-unit set-up span, then an op of 100 holding a
    /// gather of 30 and an exchange of 60 that parks for 40.
    fn profile() -> WallProfile {
        WallProfile {
            spans: vec![
                wall("pack.plan", None, 0, 10),
                wall(OP, None, 10, 100),
                wall("pack.gather", Some(1), 10, 30),
                wall("a2a.pooled", Some(1), 40, 60),
                wall(PARK, Some(3), 50, 40),
            ],
            forced_closes: 0,
            unmatched_ends: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::default();
        t.push_profiles(&[profile()], None, OpTag::OpRoots);
        assert_eq!(t.self_times(), vec![10, 100 - 30 - 60, 30, 60 - 40, 40]);
    }

    #[test]
    fn layers_split_setup_from_ops_and_subtract_nested_parks() {
        let mut t = Trace::default();
        t.push_profiles(&[profile(), profile()], None, OpTag::OpRoots);
        let l = t.layers();
        assert_eq!(l.setup["pack.plan"].busy_ns, 20);
        assert!(!l.timed.contains_key("pack.plan"));
        // Both processors: the op is busy for 100 - 40 parked.
        assert_eq!(l.timed[OP].count, 2);
        assert_eq!(l.timed[OP].busy_ns, 120);
        assert_eq!(l.root_busy_ns, 120);
        assert_eq!(l.timed[OP].self_ns, 20);
        assert_eq!(l.timed["a2a.pooled"].busy_ns, 40);
        assert_eq!(l.timed[PARK].busy_ns, 0);
        assert_eq!(l.timed[PARK].self_ns, 80);
        assert_eq!(l.busy_ns(|n| n.starts_with("pack.")), 60);
        // The op ids are per processor, in begin order.
        assert_eq!(t.spans[1].op_id, Some(0));
        assert_eq!(t.spans[4].op_id, Some(0));
        assert_eq!(t.spans[0].op_id, None);
    }

    #[test]
    fn driver_spans_cause_runs_without_sharing_their_timeline() {
        let mut t = Trace::default();
        let run = t.push_driver(MACHINE_RUN, 1000, 1500, Some(7));
        t.push_profiles(&[profile()], Some(run), OpTag::Whole(7));
        // The run's roots name the driver span as their cause ...
        assert_eq!(t.spans[1].parent, Some(run));
        assert_eq!(t.spans[2].parent, Some(run));
        assert!(t.spans.iter().all(|s| s.op_id == Some(7)));
        // ... but live on another timeline, so its self time is untouched.
        assert_eq!(t.self_times()[run], 500);
        let folded = t.folded();
        assert!(
            folded.contains("driver;bench.machine_run 500\n"),
            "{folded}"
        );
        assert!(
            folded.contains("proc0;bench.op;a2a.pooled;sched.park 40\n"),
            "{folded}"
        );
        let json = hpf_analysis::Json::parse(&t.to_json("w", 2)).unwrap();
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(json.get("truncated"), Some(&hpf_analysis::Json::Bool(true)));
    }
}
