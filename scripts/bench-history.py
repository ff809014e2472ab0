#!/usr/bin/env python3
"""Print the simulated headline of the committed perf reports over time, as
a markdown table: one row per commit at which the headline of a
results/BENCH*.json moved.

The key is the commit that changed the file, which `git log` gives; the
reports themselves name no revision. Reports up to schema v10 came in two
sizes (`mode` smoke / full) and carried wall-clock fields; the mode is
shown and the wall fields are ignored — wall numbers and their trend belong
to the repo benchmark (`benchmark/`). Nothing is written: this is a viewer.

Usage: bench-history.py
"""

import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    done = subprocess.run(["git", *args], capture_output=True, text=True, cwd=ROOT)
    return done.stdout if done.returncode == 0 else ""


def main():
    if sys.argv[1:]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    log = git(
        "log", "--reverse", "--format=%h %ct", "--name-only", "--diff-filter=ACMR",
        "--", "results/BENCH*.json",
    )
    print("| date | commit | mode | workloads | sim total (ms) |")
    print("|---|---|---|---:|---:|")
    commit, when, last = None, 0, {}
    for line in log.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            commit, when = parts[0], int(parts[1])
        elif commit and line.startswith("results/BENCH"):
            try:
                report = json.loads(git("show", f"{commit}:{line}"))
            except json.JSONDecodeError:
                continue
            mode = report.get("mode", "full")
            totals = [w.get("total_ms") for w in report.get("workloads", [])]
            headline = (len(totals), sum(t for t in totals if isinstance(t, (int, float))))
            if last.get(mode) != headline:
                last[mode] = headline
                date = datetime.datetime.fromtimestamp(when).strftime("%Y-%m-%d")
                print(f"| {date} | {commit} | {mode} | {headline[0]} | {headline[1]:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
