#!/usr/bin/env python3
"""Stale guard for a committed google-benchmark reference (BENCH_*.json).

Usage:

    python3 bench/check_bench_json.py COMMITTED.json FRESH.json

FRESH is the `--benchmark_out=FRESH.json --benchmark_out_format=json`
output of the same bench binary, typically a `--smoke` run. The check
fails (exit 1) when a row of the committed file is missing from the fresh
run, when a row's time unit differs, when a committed counter is missing
from the fresh row, or when a fresh row reports an error. It then prints,
for every committed row, fresh/committed ratios of real time and of each
counter. The ratios are for the reader only: a smoke run on an arbitrary
host says nothing about speed, so no ratio gates anything.

A row is one benchmark instance (`run_name`, e.g. `BM_HallJournal/1000`).
Its value is the `median` aggregate when the file has repetitions, else
the median over its iteration entries.
"""
import json
import statistics
import sys

# Keys google-benchmark writes for every entry; everything else numeric is
# a user counter.
STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name", "run_type",
    "repetitions", "repetition_index", "threads", "iterations", "real_time",
    "cpu_time", "time_unit", "aggregate_name", "aggregate_unit", "label",
    "error_occurred", "error_message",
}


def load_rows(path):
    """run_name -> {"unit", "real_time", "counters", "error"} for one file."""
    with open(path, encoding="utf-8") as f:
        entries = json.load(f).get("benchmarks", [])
    grouped = {}
    for e in entries:
        grouped.setdefault(e.get("run_name", e["name"]), []).append(e)
    rows = {}
    for name, group in grouped.items():
        medians = [e for e in group if e.get("aggregate_name") == "median"]
        picked = medians or [e for e in group if e.get("run_type", "iteration") == "iteration"]
        if not picked:
            continue
        counters = {}
        for key in sorted({k for e in picked for k in e} - STANDARD_KEYS):
            values = [e[key] for e in picked if isinstance(e.get(key), (int, float))]
            if values:
                counters[key] = statistics.median(values)
        rows[name] = {
            "unit": picked[0].get("time_unit"),
            "real_time": statistics.median(e.get("real_time", 0.0) for e in picked),
            "counters": counters,
            "error": next((e.get("error_message", "error") for e in group
                           if e.get("error_occurred")), None),
        }
    return rows


def ratio(fresh, committed):
    if committed == 0:
        return "n/a"
    return "%.2fx" % (fresh / committed)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed = load_rows(argv[1])
    fresh = load_rows(argv[2])
    problems = []
    for name, ref in committed.items():
        row = fresh.get(name)
        if row is None:
            problems.append("%s: missing from the fresh run" % name)
            continue
        if row["error"] is not None:
            problems.append("%s: fresh run reported an error: %s" % (name, row["error"]))
        if row["unit"] != ref["unit"]:
            problems.append("%s: time unit %s, committed %s" % (name, row["unit"], ref["unit"]))
        for key in ref["counters"]:
            if key not in row["counters"]:
                problems.append("%s: counter %s missing from the fresh run" % (name, key))

    print("%-52s %14s %14s %8s" % ("row / counter", "committed", "fresh", "ratio"))
    for name, ref in committed.items():
        row = fresh.get(name)
        if row is None:
            continue
        print("%-52s %11.4g %-2s %11.4g %-2s %8s" % (
            name, ref["real_time"], ref["unit"], row["real_time"], row["unit"],
            ratio(row["real_time"], ref["real_time"])))
        for key, value in ref["counters"].items():
            if key in row["counters"]:
                print("  %-50s %14.4g %14.4g %8s" % (
                    key, value, row["counters"][key], ratio(row["counters"][key], value)))
    extra = sorted(set(fresh) - set(committed))
    if extra:
        print("rows not in %s (re-record it to keep them): %s" % (argv[1], ", ".join(extra)))

    for p in problems:
        print("STALE: " + p, file=sys.stderr)
    if problems:
        print("%s is stale against %s: %d problem(s)" % (argv[1], argv[2], len(problems)),
              file=sys.stderr)
        return 1
    print("%s: all %d committed rows present with matching units" % (argv[1], len(committed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
