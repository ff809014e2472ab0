#!/usr/bin/env python3
"""Tabulate the simulated headline of every perf report into a markdown
trend table.

Walks the git history of results/BENCH_*.json (every committed revision of
every per-revision report and the baseline), parses each version it can
read, dedupes by the report's own `rev` + mode (newest commit wins), adds
any reports sitting uncommitted in the working tree, and renders one row
per report ordered oldest-first. Stdlib only.

Headline column: the summed simulated total (deterministic; any drift is
a behavioural change). Reports up to schema v9 also carried wall-clock
fields; they are read and their wall fields ignored — wall numbers and
their trend belong to the repo benchmark (`benchmark/`).

Usage: bench-history.py [--out FILE]    (default: print to stdout)
Exit code 0 even when no reports exist (prints an empty table) so the
regen hook never turns a missing history into a failure.
"""

import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, cwd=ROOT, check=False
    )


def committed_reports():
    """Yield (commit_time, report_dict) for every parseable committed
    version of a results/BENCH_*.json file."""
    log = git(
        "log", "--format=%h %ct", "--name-only", "--diff-filter=ACMR",
        "--", "results/BENCH_*.json",
    )
    if log.returncode != 0:
        return
    commit, ctime = None, 0
    for line in log.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            commit, ctime = parts[0], int(parts[1])
            continue
        if commit is None or not line.startswith("results/BENCH_"):
            continue
        show = git("show", f"{commit}:{line}")
        if show.returncode != 0:
            continue
        try:
            yield ctime, json.loads(show.stdout)
        except json.JSONDecodeError:
            continue


def worktree_reports():
    """Yield (mtime, report_dict) for reports in the working tree."""
    results = os.path.join(ROOT, "results")
    if not os.path.isdir(results):
        return
    for name in sorted(os.listdir(results)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(results, name)
        try:
            with open(path) as f:
                yield int(os.path.getmtime(path)), json.load(f)
        except (OSError, json.JSONDecodeError):
            continue


def headline(report):
    workloads = [w for w in report.get("workloads", []) if isinstance(w, dict)]
    sim = sum(
        w["total_ms"] for w in workloads if isinstance(w.get("total_ms"), (int, float))
    )
    return {
        "rev": report.get("rev", "?"),
        "mode": report.get("mode", "?"),
        "n": len(workloads),
        "sim_ms": sim,
    }


def main():
    out_path = None
    args = sys.argv[1:]
    if args[:1] == ["--out"]:
        if len(args) != 2:
            print("bench-history: --out requires a path", file=sys.stderr)
            return 2
        out_path = args[1]
    elif args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    # Dedupe by (report rev, mode): a report re-committed unchanged keeps
    # its oldest sighting so the trend shows when the numbers appeared.
    seen = {}
    for when, report in list(committed_reports()) + list(worktree_reports()):
        key = (report.get("rev", "?"), report.get("mode", "?"))
        if key not in seen or when < seen[key][0]:
            seen[key] = (when, report)

    rows = sorted(
        ((when, headline(r)) for when, r in seen.values()), key=lambda t: t[0]
    )

    lines = [
        "# Bench history",
        "",
        "| date | rev | mode | workloads | sim total (ms) |",
        "|---|---|---|---:|---:|",
    ]
    for when, h in rows:
        date = datetime.datetime.fromtimestamp(when).strftime("%Y-%m-%d")
        lines.append(
            f"| {date} | {h['rev']} | {h['mode']} | {h['n']} | {h['sim_ms']:.3f} |"
        )
    text = "\n".join(lines) + "\n"

    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
        print(f"bench-history: {len(rows)} reports -> {out_path}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
