//! From rounds to named metrics: what a round's child prints, how the
//! traced round's spans become per-layer times, and how the rounds of one
//! workload reduce to its end-to-end metrics.

use hpf_analysis::{median, Json};

use crate::spans::{Layers, PARK};
use crate::stats::{argmin, quietest_block, rounds_spread, tail_percentile, QUIET_SPAN_US};
use crate::workloads::{Round, Workload};

/// A named number.
pub type Metric = (String, f64);

fn m(name: &str, value: f64) -> Metric {
    (name.to_string(), value)
}

/// Render `fields` as one flat JSON object. Non-finite values become 0.
pub fn to_json(fields: &[Metric]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Read a flat JSON object of numbers back.
pub fn from_json(text: &str) -> Result<Vec<Metric>, String> {
    let json = Json::parse(text)?;
    let obj = json.as_obj().ok_or("expected a JSON object")?;
    obj.iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|x| (k.clone(), x))
                .ok_or(format!("field {k} is not a number"))
        })
        .collect()
}

pub fn get(fields: &[Metric], name: &str) -> f64 {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Everything a round's child reports, as flat fields. A traced round adds
/// its per-layer metrics under their final names.
pub fn round_fields(w: &Workload, r: &Round, pinned: bool, memcpy_gbps: f64) -> Vec<Metric> {
    let op_us: Vec<f64> = r.op_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
    let (quiet_p50_us, quiet_mean_us) = quietest_block(&op_us, QUIET_SPAN_US);
    let mut sorted = op_us;
    sorted.sort_by(f64::total_cmp);
    let (_, tail_us) = tail_percentile(&sorted);
    let mut out = vec![
        m("setup_s", r.setup_s),
        m("ops", r.op_ns.len() as f64),
        m("failed", r.failed as f64),
        m("elements", r.elements as f64),
        m("round_p50_us", median(&sorted)),
        m("quiet_p50_us", quiet_p50_us),
        m("quiet_mean_us", quiet_mean_us),
        m("op_us_tail", tail_us),
        m("sim_us_per_op", r.sim_ns_per_op / 1e3),
        m("peak_rss_kb", r.peak_rss_kb as f64),
        m("pinned", f64::from(u8::from(pinned))),
        m("machine.xport.msgs_per_op", r.msgs_per_op),
        m("machine.xport.words_per_op", r.words_per_op),
        m("machine.xport.retransmits", r.retransmits as f64),
        m("machine.xport.dup_drops", r.dup_drops as f64),
        m("machine.pool.allocs_per_op", r.allocs_per_op),
        m("core.plan.bulk_fraction", r.bulk_fraction),
        m("machine.recovery.replays", r.recovery.replays as f64),
        m(
            "machine.recovery.replayed_frames",
            r.recovery.replayed_frames as f64,
        ),
        m("machine.recovery.replay_ms", r.recovery.replay_ms),
        m(
            "machine.recovery.log_high_water_words",
            r.recovery.log_high_water_words as f64,
        ),
    ];
    if let Some(t) = &r.traced {
        out.push(m("host.memcpy_gbps", memcpy_gbps));
        out.push(m("machine.sched.ctxsw_per_op", t.ctxsw_per_op));
        out.push(m("machine.xport.clone_words", t.clone_words as f64));
        for (account, bytes) in &t.mem_peak {
            out.push(m(
                &format!("machine.mem.peak_bytes.{account}"),
                *bytes as f64,
            ));
        }
        out.extend(layer_metrics(
            &t.layers,
            w.nprocs(),
            r.op_ns.len(),
            r.op_ns.iter().sum(),
            memcpy_gbps,
        ));
    }
    out
}

/// Per-layer times of a traced round, µs per op summed over processors
/// (see `spans.rs` for why summed). `wall_ns` is the timed window.
pub fn layer_metrics(
    l: &Layers,
    nprocs: usize,
    ops: usize,
    wall_ns: u64,
    memcpy_gbps: f64,
) -> Vec<Metric> {
    let ops = ops.max(1) as f64;
    let per_op_us = |ns: u64| ns as f64 / ops / 1e3;
    // Planning happens inside the ops of some workloads and once, during
    // set-up, in the others; either way it is reported per plan.
    let in_ops = l.timed.get("pack.plan").is_some_and(|p| p.count > 0);
    let plans_in_setup = l.setup.get("pack.plan").map_or(0, |p| p.count) as f64 / nprocs as f64;
    let per_plan = |pick: &dyn Fn(&str) -> bool, field: &dyn Fn(&crate::spans::Layer) -> u64| {
        if in_ops {
            crate::spans::sum(&l.timed, pick, field) as f64 / ops
        } else if plans_in_setup > 0.0 {
            crate::spans::sum(&l.setup, pick, field) as f64 / plans_in_setup
        } else {
            0.0
        }
    };
    let plan_us = |pick: &dyn Fn(&str) -> bool| per_plan(pick, &|x| x.busy_ns) / 1e3;

    let contig = l.timed.get("copy.contig").copied().unwrap_or_default();
    let scatter = l.timed.get("copy.scatter").copied().unwrap_or_default();
    let handoff_ns = wall_ns.saturating_sub(l.root_busy_ns);
    let is_library = |n: &str| !n.starts_with("bench.") && n != PARK;
    let share = |ns: u64| ns as f64 / wall_ns.max(1) as f64;
    vec![
        m("core.plan.pack_us", plan_us(&|n| n == "pack.plan")),
        m("core.plan.unpack_us", plan_us(&|n| n == "unpack.plan")),
        m("core.plan.lower_us", plan_us(&|n| n == "plan.lower")),
        m("core.ranking.us", plan_us(&|n| n.starts_with("rank."))),
        m("machine.prs.us", plan_us(&|n| n.starts_with("prs."))),
        m(
            "machine.prs.calls",
            per_plan(&|n| n.starts_with("prs."), &|x| x.count) / nprocs as f64,
        ),
        m(
            "core.exec.pack_us",
            per_op_us(l.busy_ns(|n| n == "pack.execute")),
        ),
        m(
            "core.exec.unpack_us",
            per_op_us(l.busy_ns(|n| n == "unpack.execute")),
        ),
        m("core.copy.contig_us", per_op_us(contig.busy_ns)),
        m("core.copy.scatter_us", per_op_us(scatter.busy_ns)),
        m(
            "core.copy.bytes_per_op",
            (contig.bytes + scatter.bytes) as f64 / ops,
        ),
        m(
            "core.copy.roof_frac",
            if contig.busy_ns == 0 || memcpy_gbps <= 0.0 {
                0.0
            } else {
                contig.bytes as f64 / contig.busy_ns as f64 / memcpy_gbps
            },
        ),
        m(
            "machine.a2a.us",
            per_op_us(l.self_ns(|n| n.starts_with("a2a."))),
        ),
        m(
            "machine.sched.parks_per_op",
            l.count(|n| n == PARK) as f64 / ops,
        ),
        m("machine.sched.park_us", per_op_us(handoff_ns)),
        m("machine.sched.park_share", share(handoff_ns)),
        m("trace.coverage", share(l.self_ns(is_library))),
    ]
}

/// The end-to-end metrics of one workload from its untraced rounds, plus
/// the attempt and failure counts. Wall metrics come from the quietest
/// block of any round, set-up time and memory are medians over rounds. A
/// round whose simulated time differs from the first round's counts all its
/// ops as failed.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The round with the lowest median op time.
    pub best: Vec<Metric>,
    pub rounds_spread: f64,
}

pub fn end_to_end(rounds: &[Vec<Metric>]) -> EndToEnd {
    let col = |name: &str| -> Vec<f64> { rounds.iter().map(|r| get(r, name)).collect() };
    let medians = col("round_p50_us");
    let best = rounds[argmin(&medians)].clone();
    let lowest = |name: &str| col(name).into_iter().fold(f64::INFINITY, f64::min);
    let sim0 = get(&rounds[0], "sim_us_per_op");
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in rounds {
        let ops = get(r, "ops") as u64;
        attempted += ops;
        failed += if get(r, "sim_us_per_op").to_bits() == sim0.to_bits() {
            get(r, "failed") as u64
        } else {
            ops
        };
    }
    EndToEnd {
        metrics: vec![
            m("setup_s", median(&col("setup_s"))),
            m("op_us_p50", lowest("quiet_p50_us")),
            m(
                "melem_per_s",
                get(&best, "elements") / lowest("quiet_mean_us"),
            ),
            m("peak_rss_mb", median(&col("peak_rss_kb")) / 1024.0),
        ],
        attempted,
        failed,
        best,
        rounds_spread: rounds_spread(&medians),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Layer;

    fn round(p50: f64, ops: f64, failed: f64, sim: f64, setup: f64) -> Vec<Metric> {
        vec![
            m("round_p50_us", p50),
            m("quiet_p50_us", p50 - 30.0),
            m("quiet_mean_us", p50 - 20.0),
            m("ops", ops),
            m("failed", failed),
            m("sim_us_per_op", sim),
            m("setup_s", setup),
            m("elements", 1000.0),
            m("peak_rss_kb", 2048.0),
        ]
    }

    #[test]
    fn wall_metrics_come_from_the_quietest_block_and_setup_from_the_median() {
        let rounds = vec![
            round(910.0, 100.0, 0.0, 3961.0, 0.30),
            round(880.0, 110.0, 0.0, 3961.0, 0.10),
            round(2600.0, 40.0, 0.0, 3961.0, 0.20),
        ];
        let e = end_to_end(&rounds);
        assert_eq!(get(&e.metrics, "op_us_p50"), 850.0);
        assert_eq!(get(&e.best, "round_p50_us"), 880.0);
        assert_eq!(get(&e.metrics, "setup_s"), 0.20);
        assert_eq!(get(&e.metrics, "peak_rss_mb"), 2.0);
        // 1000 elements per op at a mean of 860 µs per op.
        assert!((get(&e.metrics, "melem_per_s") - 1000.0 / 860.0).abs() < 1e-9);
        assert_eq!((e.attempted, e.failed), (250, 0));
    }

    #[test]
    fn a_round_with_a_different_simulated_time_fails_all_its_ops() {
        let rounds = vec![
            round(900.0, 100.0, 1.0, 3961.0, 0.1),
            round(900.0, 120.0, 0.0, 3961.5, 0.1),
        ];
        let e = end_to_end(&rounds);
        assert_eq!((e.attempted, e.failed), (220, 121));
    }

    #[test]
    fn flat_json_round_trips() {
        let fields = vec![m("a.b", 1.5), m("n", f64::NAN), m("big", 1e21)];
        let back = from_json(&to_json(&fields)).unwrap();
        assert_eq!(back, vec![m("a.b", 1.5), m("n", 0.0), m("big", 1e21)]);
    }

    #[test]
    fn layer_metrics_sum_over_processors_per_op() {
        let mut l = Layers::default();
        let layer = |count, busy_ns, self_ns, bytes| Layer {
            count,
            busy_ns,
            self_ns,
            bytes,
        };
        // Two processors, ten ops of 1000 ns each; planning was set-up.
        l.setup.insert("pack.plan", layer(2, 4000, 1000, 0));
        l.setup.insert("prs.direct", layer(6, 1500, 1500, 0));
        l.timed.insert("pack.execute", layer(20, 6000, 500, 0));
        l.timed.insert("copy.contig", layer(20, 2000, 2000, 8000));
        l.timed.insert("a2a.pooled", layer(20, 1500, 1000, 0));
        l.timed.insert(PARK, layer(40, 0, 9000, 0));
        l.timed.insert("bench.op", layer(20, 7000, 1000, 0));
        l.root_busy_ns = 7000;
        let got = layer_metrics(&l, 2, 10, 10_000, 8.0);
        assert_eq!(get(&got, "core.plan.pack_us"), 4.0);
        assert_eq!(get(&got, "machine.prs.us"), 1.5);
        assert_eq!(get(&got, "machine.prs.calls"), 3.0);
        assert_eq!(get(&got, "core.exec.pack_us"), 0.6);
        assert_eq!(get(&got, "core.copy.contig_us"), 0.2);
        assert_eq!(get(&got, "core.copy.bytes_per_op"), 800.0);
        // 8000 bytes in 2000 ns is 4 GB/s, half the 8 GB/s roof.
        assert_eq!(get(&got, "core.copy.roof_frac"), 0.5);
        assert_eq!(get(&got, "machine.a2a.us"), 0.1);
        assert_eq!(get(&got, "machine.sched.parks_per_op"), 4.0);
        // 10 000 ns of wall, 7000 of them with some processor running.
        assert_eq!(get(&got, "machine.sched.park_us"), 0.3);
        assert_eq!(get(&got, "machine.sched.park_share"), 0.3);
        // Library spans' self time: 500 + 2000 + 1000 of 10 000.
        assert_eq!(get(&got, "trace.coverage"), 0.35);
    }
}
