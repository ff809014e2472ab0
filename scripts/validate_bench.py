#!/usr/bin/env python3
"""Validate a BENCH_<rev>.json perf report against scripts/bench-schema.json.

Stdlib-only: implements the subset of JSON Schema the schema file uses
(type, required, properties, items, enum, minimum, minItems), then applies
cross-field checks the schema cannot express: every paper scheme must
appear (restricted to the filtered group when the report carries a
`--filter`), per-stage times must sum to (approximately) the total, every
recorded cost-model conformance verdict must pass, every `exec_hot`
workload must report **zero** steady-state allocations per execute and
zero deep-copied payload words (and dense-mask `.dense` workloads must
move at least 90% of their elements through bulk copy ops — the
copy-program lowering gate), every `recovery` workload must have
actually recovered its scheduled crash (replays >= 1, a live replay log,
non-negative wall-clock overhead), every `memory` workload's predicted
peak must bound the measured one without over-estimating past the 1.25
ratio gate (with byte-exact mailbox-ring accounting), every `scale`
workload must report bit-identical results across worker-pool sizes 1
and N with a positive ns/proc-step, and every workload's `wall`
statistics must be coherent:
smoke reports are single-rep with `cv` null (unmeasured, never 0.0),
full reports are multi-rep with `cv` measured and below WALL_CV_GATE —
a noisier measurement means the wall numbers are not trustworthy enough
to gate future revisions against.

Usage: validate_bench.py REPORT.json [SCHEMA.json]
Exit code 0 on success, 1 with a diagnostic per violation otherwise.
"""

import json
import os
import sys

# Mirrors hpf_analysis::memory::MEM_RATIO_GATE.
MEM_RATIO_GATE = 1.25

# Maximum tolerated coefficient of variation (MAD / median) of a full
# report's wall measurement; noisier than this and the report is unfit to
# serve as a perfdiff --wall baseline.
WALL_CV_GATE = 0.15

# The cv gate only applies to workloads whose wall median is at least this
# many milliseconds: one scheduler preemption costs on the order of a
# millisecond, so below a few milliseconds a single descheduling event
# shifts the sample by tens of percent and relative noise is meaningless.
# Sub-threshold workloads still get wall stats reported (and their
# regressions are caught by the simulated gate); they just cannot fail on
# noise alone.
WALL_CV_MIN_MS = 5.0

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def check(instance, schema, path, errors):
    """Recursively validate `instance` against the schema subset."""
    if "enum" in schema:
        if instance not in schema["enum"]:
            errors.append(f"{path}: {instance!r} not in {schema['enum']}")
        return

    types = schema.get("type")
    if types is not None:
        allowed = types if isinstance(types, list) else [types]
        ok = False
        for t in allowed:
            py = TYPES[t]
            if isinstance(instance, py) and not (
                t in ("integer", "number") and isinstance(instance, bool)
            ):
                ok = True
                break
        if not ok:
            errors.append(f"{path}: expected {allowed}, got {type(instance).__name__}")
            return

    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            errors.append(f"{path}: {instance} < minimum {schema['minimum']}")

    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                check(instance[key], sub, f"{path}.{key}", errors)

    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            errors.append(f"{path}: {len(instance)} items < minItems {schema['minItems']}")
        item_schema = schema.get("items")
        if item_schema:
            for i, item in enumerate(instance):
                check(item, item_schema, f"{path}[{i}]", errors)


def coverage_checks(report, errors):
    """Paper coverage: all PACK schemes, both redistributions, both UNPACK
    schemes, the hot-path sweep, and the four application kernels must be
    present. A report produced with `--filter GROUP` only owes the
    workloads of that group."""
    names = [w["name"] for w in report.get("workloads", []) if isinstance(w, dict)]
    required_prefixes = [
        ("pack", "pack.sss"), ("pack", "pack.css"), ("pack", "pack.cms"),
        ("redist", "pack.red1"), ("redist", "pack.red2"),
        ("unpack", "unpack.sss"), ("unpack", "unpack.css"),
        ("plan_reuse", "plan_reuse.pack.sss"),
        ("plan_reuse", "plan_reuse.pack.css"),
        ("plan_reuse", "plan_reuse.pack.cms"),
        ("plan_reuse", "plan_reuse.unpack.sss"),
        ("plan_reuse", "plan_reuse.unpack.css"),
        ("exec_hot", "exec_hot.pack.sss"),
        ("exec_hot", "exec_hot.pack.css"),
        ("exec_hot", "exec_hot.pack.cms"),
        ("exec_hot", "exec_hot.unpack.sss"),
        ("exec_hot", "exec_hot.unpack.css"),
        ("recovery", "recovery.pack.sss"),
        ("recovery", "recovery.pack.cms"),
        ("recovery", "recovery.unpack.sss"),
        ("apps", "apps.compaction"), ("apps", "apps.sort"),
        ("apps", "apps.spmv"), ("apps", "apps.gather"),
        ("memory", "memory.pack.sss"),
        ("memory", "memory.pack.css"),
        ("memory", "memory.pack.cms"),
        ("memory", "memory.unpack.sss"),
        ("memory", "memory.unpack.css"),
        ("memory", "memory.pack.red1"),
        ("memory", "memory.pack.red2"),
        ("scale", "scale.roundtrip.p64"),
        ("scale", "scale.roundtrip.p1024"),
        ("scale", "scale.roundtrip.p4096"),
    ]
    fil = report.get("filter")
    for group, prefix in required_prefixes:
        if fil is not None and group != fil:
            continue
        if not any(n == prefix or n.startswith(prefix + ".") for n in names):
            errors.append(f"coverage: no workload named {prefix}[.*]")
    # The exec_hot sweep must include dense-mask variants: they are where
    # the bulk-copy fraction and the memcpy-roof ns/element are gated.
    if fil in (None, "exec_hot"):
        hot_names = [n for n in names if n.startswith("exec_hot.")]
        if hot_names and not any(n.endswith(".dense") for n in hot_names):
            errors.append("coverage: exec_hot group carries no .dense workloads")
    for w in report.get("workloads", []):
        if isinstance(w, dict) and fil is not None and w.get("group") != fil:
            errors.append(
                f"workload {w.get('name')}: group {w.get('group')} leaked "
                f"into a report filtered to {fil}"
            )
    # Each stage time is a per-category max over processors, so it can never
    # exceed the critical-path total (the max over processors of the sums).
    # Their sum must bracket the total: at least the total (maxima dominate
    # the slowest processor's per-category times), and not much more — the
    # slack is the load imbalance between the per-category argmax processors.
    # Synchronized kernels (pack/redist/unpack) stay within a few percent;
    # apps with data-dependent imbalance (sample sort) have been measured up
    # to ~16%, so that group gets a looser bound.
    for w in report.get("workloads", []):
        if not isinstance(w, dict) or "stages_ms" not in w:
            continue
        total = w.get("total_ms", 0)
        if not isinstance(total, (int, float)):
            continue
        stage_sum = 0.0
        for stage, v in w["stages_ms"].items():
            if not isinstance(v, (int, float)):
                continue
            stage_sum += v
            if v > total * 1.001 + 1e-9:
                errors.append(
                    f"workload {w.get('name')}: stage {stage} = {v} exceeds total {total}"
                )
        slack = 1.35 if w.get("group") == "apps" else 1.15
        if stage_sum < total * 0.999 - 1e-9 or stage_sum > total * slack + 1e-9:
            errors.append(
                f"workload {w.get('name')}: sum(stages_ms) = {stage_sum:.6f} outside "
                f"[{total:.6f}, {total * slack:.6f}] (total_ms x {slack})"
            )
        conf = w.get("conformance")
        if isinstance(conf, dict):
            if conf.get("pass") is not True:
                errors.append(
                    f"workload {w.get('name')}: conformance failed "
                    f"(scheme {conf.get('scheme')}, rel_error {conf.get('rel_error')})"
                )
            # Phase attribution must tile the totals exactly.
            for side in ("predicted", "measured"):
                plan = conf.get(f"{side}_plan_ops")
                execute = conf.get(f"{side}_execute_ops")
                total = conf.get(f"{side}_ops")
                if (
                    isinstance(plan, int)
                    and isinstance(execute, int)
                    and plan + execute != total
                ):
                    errors.append(
                        f"workload {w.get('name')}: {side} plan {plan} + "
                        f"execute {execute} != total {total}"
                    )
        hot = w.get("hot")
        if isinstance(hot, dict):
            name = w.get("name")
            # The zero-copy execute gate: from the third execution of a plan
            # onward the pooled buffers absorb the whole loop, so the
            # counting allocator must see literally nothing, and a
            # fault-free run must never deep-copy a payload.
            if hot.get("allocs_per_execute") != 0:
                errors.append(
                    f"workload {name}: {hot.get('allocs_per_execute')} heap "
                    "allocations per steady-state execute (must be 0)"
                )
            if hot.get("alloc_bytes_per_execute") != 0:
                errors.append(
                    f"workload {name}: {hot.get('alloc_bytes_per_execute')} heap "
                    "bytes per steady-state execute (must be 0)"
                )
            if hot.get("clone_words") != 0:
                errors.append(
                    f"workload {name}: fault-free run deep-copied "
                    f"{hot.get('clone_words')} payload words (must be 0)"
                )
            wall = hot.get("wall_ns_per_exec")
            if not isinstance(wall, (int, float)) or wall <= 0:
                errors.append(f"workload {name}: wall_ns_per_exec {wall} not positive")
            # The copy-program lowering gate: on dense (contiguous-mask)
            # workloads the plan must move nearly everything through bulk
            # Contig/Strided ops; a fraction below 0.9 means the lowering
            # stopped finding the runs the mask guarantees.
            cops = hot.get("copy_ops")
            if not isinstance(cops, dict):
                errors.append(f"workload {name}: hot report carries no copy_ops")
            elif isinstance(name, str) and name.endswith(".dense"):
                bf = cops.get("bulk_fraction")
                if not isinstance(bf, (int, float)) or bf < 0.9:
                    errors.append(
                        f"workload {name}: dense-mask bulk-copy fraction {bf} "
                        "below 0.9 — the plan-time lowering is not producing "
                        "bulk ops"
                    )
        rec = w.get("recovery")
        if isinstance(rec, dict):
            name = w.get("name")
            # The crash-recovery gate: every recovery workload schedules a
            # crash, so the run must actually have recovered (at least one
            # replay), the peers must have been retaining frames for the
            # victim (a live replay log), and the wall-clock overhead of
            # recovering must be non-negative by construction.
            if rec.get("recovered") is not True:
                errors.append(f"workload {name}: crash was not recovered")
            if not rec.get("replays", 0) >= 1:
                errors.append(
                    f"workload {name}: {rec.get('replays')} replays "
                    "(the scheduled crash never fired)"
                )
            if not rec.get("replay_log_high_water_words", 0) > 0:
                errors.append(
                    f"workload {name}: replay log high-water is 0 — "
                    "peers retained no frames for recovery"
                )
            overhead = rec.get("overhead_wall_ms")
            if not isinstance(overhead, (int, float)) or overhead < 0:
                errors.append(
                    f"workload {name}: overhead_wall_ms {overhead} negative"
                )
        elif w.get("group") == "recovery":
            errors.append(
                f"workload {w.get('name')}: recovery group entry carries "
                "no recovery report"
            )
        reuse = w.get("reuse")
        if isinstance(reuse, dict):
            name = w.get("name")
            # The planner/executor split's payoff: a cached plan re-executed
            # must cost well under a full (plan + execute) call, amortized.
            ratio = reuse.get("ratio", 1.0)
            if not isinstance(ratio, (int, float)) or ratio > 0.6:
                errors.append(
                    f"workload {name}: reuse ratio {ratio} exceeds 0.6 — "
                    "cached execution is not amortizing the planning cost"
                )
            if not reuse.get("cache_hits", 0) > 0:
                errors.append(f"workload {name}: plan reuse recorded no cache hits")
            executes = reuse.get("executes", 0)
            for arm in ("fresh", "cached"):
                per = reuse.get(f"{arm}_per_exec_ms")
                total = reuse.get(f"{arm}_total_ms")
                if (
                    isinstance(per, (int, float))
                    and isinstance(total, (int, float))
                    and isinstance(executes, int)
                    and executes > 0
                    and abs(per * executes - total) > max(1e-6, total * 1e-9)
                ):
                    errors.append(
                        f"workload {name}: {arm}_per_exec_ms x executes != "
                        f"{arm}_total_ms ({per} x {executes} vs {total})"
                    )
        mem = w.get("memory")
        if isinstance(mem, dict):
            name = w.get("name")
            # The peak-memory gate: the closed-form model must be an upper
            # bound on the measured simulated-time high-water mark, and a
            # useful one — over-estimation past MEM_RATIO_GATE means the
            # model (DESIGN.md section 13) has drifted from the executor.
            measured = mem.get("measured_peak_bytes")
            predicted = mem.get("predicted_peak_bytes")
            if not (isinstance(measured, int) and measured > 0):
                errors.append(
                    f"workload {name}: measured peak {measured!r} not positive — "
                    "memory tracking recorded no charges"
                )
            elif not (isinstance(predicted, int) and predicted >= measured):
                errors.append(
                    f"workload {name}: predicted peak {predicted} under-estimates "
                    f"measured {measured}"
                )
            ratio = mem.get("ratio")
            if not isinstance(ratio, (int, float)) or ratio > MEM_RATIO_GATE:
                errors.append(
                    f"workload {name}: predicted/measured ratio {ratio} exceeds "
                    f"{MEM_RATIO_GATE}"
                )
            if mem.get("ring_exact") is not True:
                errors.append(
                    f"workload {name}: mailbox-ring accounting is not "
                    f"byte-exact (ring_bytes {mem.get('ring_bytes')})"
                )
            if mem.get("pass") is not True:
                errors.append(f"workload {name}: memory gate failed")
        elif w.get("group") == "memory":
            errors.append(
                f"workload {w.get('name')}: memory group entry carries "
                "no memory report"
            )
        sc = w.get("scale")
        if isinstance(sc, dict):
            name = w.get("name")
            # The scheduler-determinism gate: the same program under a
            # single-permit worker pool and under a multi-permit pool must
            # produce bit-identical results, simulated clocks, and
            # communication matrices — the whole point of the cooperative
            # scheduler is that worker count is wall-side only.
            if sc.get("identical") is not True:
                errors.append(
                    f"workload {name}: diverged between worker-pool sizes "
                    f"{sc.get('workers_low')} and {sc.get('workers_high')}"
                )
            if sc.get("workers_low") != 1:
                errors.append(
                    f"workload {name}: scale baseline pool size "
                    f"{sc.get('workers_low')} (must be 1)"
                )
            wh = sc.get("workers_high")
            if not (isinstance(wh, int) and wh >= 2):
                errors.append(
                    f"workload {name}: scale comparison pool size {wh!r} "
                    "must be >= 2 to exercise real interleaving"
                )
            nps = sc.get("ns_per_proc_step")
            if not isinstance(nps, (int, float)) or nps <= 0:
                errors.append(
                    f"workload {name}: ns_per_proc_step {nps!r} not positive"
                )
        elif w.get("group") == "scale":
            errors.append(
                f"workload {w.get('name')}: scale group entry carries "
                "no scale report"
            )
        wall = w.get("wall")
        if isinstance(wall, dict):
            name = w.get("name")
            reps = wall.get("reps")
            cv = wall.get("cv")
            smoke = report.get("mode") == "smoke"
            # Smoke pins reps=1 and must mark cv null: "unmeasured" and
            # "measured, perfectly stable" are different claims. Full
            # reports repeat the measurement, so cv must exist and stay
            # under the gate for the report to be a usable wall baseline.
            if smoke:
                if reps != 1:
                    errors.append(f"workload {name}: smoke report ran {reps} reps (must be 1)")
                if cv is not None:
                    errors.append(
                        f"workload {name}: smoke report carries cv {cv} "
                        "(single-rep noise is unmeasured; must be null)"
                    )
            elif not (isinstance(reps, int) and reps >= 2):
                errors.append(
                    f"workload {name}: full report ran {reps} reps "
                    "(need >= 2 to measure noise)"
                )
            elif not isinstance(cv, (int, float)):
                errors.append(
                    f"workload {name}: full report has cv {cv!r} "
                    "(must be measured when reps >= 2)"
                )
            elif cv > WALL_CV_GATE and wall.get("median_ms", 0) >= WALL_CV_MIN_MS:
                errors.append(
                    f"workload {name}: wall cv {cv} exceeds {WALL_CV_GATE} — "
                    "measurement too noisy to serve as a wall baseline"
                )
            med = wall.get("median_ms")
            if not isinstance(med, (int, float)) or med <= 0:
                errors.append(f"workload {name}: wall median_ms {med!r} not positive")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    report_path = sys.argv[1]
    schema_path = (
        sys.argv[2]
        if len(sys.argv) == 3
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench-schema.json")
    )
    with open(report_path) as f:
        report = json.load(f)
    with open(schema_path) as f:
        schema = json.load(f)

    errors = []
    check(report, schema, "$", errors)
    if not errors:  # coverage checks assume a structurally valid report
        coverage_checks(report, errors)

    if errors:
        for e in errors:
            print(f"validate_bench: {e}", file=sys.stderr)
        return 1
    print(
        f"validate_bench: {report_path} OK "
        f"({len(report['workloads'])} workloads, rev {report['rev']}, {report['mode']} mode)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
