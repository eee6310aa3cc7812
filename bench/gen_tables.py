#!/usr/bin/env python3
"""Regenerate the E2 and E2b tables of EXPERIMENTS.md from the committed
bench JSON (BENCH_interception.json and BENCH_script.json).

Usage, from the repository root:

    python3 bench/gen_tables.py          # rewrite the tables in place
    python3 bench/gen_tables.py --check  # exit 1, with a diff, if stale

Each table sits between a `<!-- BEGIN GENERATED <id> -->` line and an
`<!-- END GENERATED <id> -->` line; nothing outside the markers is read or
written. A row's value is its `median` aggregate, read the way
bench/check_bench_json.py reads it. Times print with three significant
figures, in ns below 1 us and in us above.
"""
import difflib
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench_json import load_rows  # noqa: E402

DOC = "EXPERIMENTS.md"
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def three_figures(x):
    digits = 0 if x == 0 else max(0, 2 - math.floor(math.log10(abs(x))))
    return "%.*f" % (digits, x)


def fmt_ns(ns):
    if abs(ns) >= 1000:
        return three_figures(ns / 1000) + " µs"
    return three_figures(ns) + " ns"


def fmt_ratio(x):
    return three_figures(x) + "×"


class Bench:
    """Median times in ns of one committed JSON, by benchmark name."""

    def __init__(self, path):
        self.rows = load_rows(path)

    def ns(self, name):
        row = self.rows[name]
        return row["real_time"] * NS_PER_UNIT[row["unit"]]

    def counter_ns(self, name, counter):
        return self.rows[name]["counters"][counter] * 1e9  # seconds per item


def table(header, rows):
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(r) + " |" for r in rows]
    return out


def e2_table(b):
    unhooked = b.ns("BM_DispatchUnhooked")
    plain = b.ns("BM_DispatchHookedUnwoven")
    woven = b.ns("BM_DispatchWovenNoopBefore")
    obs_off = b.ns("BM_DispatchWovenNoopBeforeObsOff")
    vm = b.ns("BM_ScriptAdviceVm")
    return table(["quantity", "paper", "measured here", "JSON row"], [
        ["non-intercepted call", "~700 ns", fmt_ns(plain), "`BM_DispatchHookedUnwoven`"],
        ["call with do-nothing interception", "~900 ns", fmt_ns(woven),
         "`BM_DispatchWovenNoopBefore`"],
        ["per-interception constant (woven − un-woven)", "~200 ns", fmt_ns(woven - plain),
         "difference of the two"],
        ["ratio intercepted / plain", "~1.29×", fmt_ratio(woven / plain), "ratio of the two"],
        ["the same interception, obs off", "—",
         "%s (%s; constant %s)" % (fmt_ns(obs_off), fmt_ratio(obs_off / plain),
                                   fmt_ns(obs_off - plain)),
         "`BM_DispatchWovenNoopBeforeObsOff`"],
        ["methods without interceptions", "\"not slowed down\"",
         "dormant hook costs %s over `BM_DispatchUnhooked` (%s)"
         % (fmt_ns(plain - unhooked), fmt_ns(unhooked)),
         "`BM_DispatchHookedUnwoven` − `BM_DispatchUnhooked`"],
        ["debugger-style dispatch, nothing woven", "—",
         "%s (%s the minimal hook)" % (fmt_ns(b.ns("BM_DispatchDebuggerStyle")),
                                       fmt_ratio(b.ns("BM_DispatchDebuggerStyle") / plain)),
         "`BM_DispatchDebuggerStyle`"],
        ["script `before` advice with an empty body", "—",
         fmt_ns(b.ns("BM_DispatchWovenScriptBefore")), "`BM_DispatchWovenScriptBefore`"],
        ["do-nothing `around` advice", "—", fmt_ns(b.ns("BM_DispatchWovenNoopAround")),
         "`BM_DispatchWovenNoopAround`"],
        ["monitoring advice on the `Vm`", "—", fmt_ns(vm), "`BM_ScriptAdviceVm`"],
        ["the same advice on the tree-walking oracle", "—",
         "%s (%s)" % (fmt_ns(b.ns("BM_ScriptAdviceTreeWalk")),
                      fmt_ratio(b.ns("BM_ScriptAdviceTreeWalk") / vm)),
         "`BM_ScriptAdviceTreeWalk`"],
    ])


def e2b_table(b):
    rows = [
        ("install path: parse, static check, `script::compile`, top level",
         b.ns("BM_CompileMonitoringExtension"), "`BM_CompileMonitoringExtension`"),
        ("call of an empty function, by name", b.ns("BM_CallDispatchEmptyFunction"),
         "`BM_CallDispatchEmptyFunction`"),
        ("monitoring advice body (dict + list append)", b.ns("BM_MonitoringAdviceBody"),
         "`BM_MonitoringAdviceBody`"),
        ("arithmetic loop, per iteration",
         b.counter_ns("BM_ArithmeticLoop", "ns_per_iteration"),
         "`BM_ArithmeticLoop` (`ns_per_iteration`)"),
        ("`fib(12)` (465 script calls)", b.ns("BM_RecursiveFib"), "`BM_RecursiveFib`"),
        ("string building, 100 appends", b.ns("BM_StringBuilding"), "`BM_StringBuilding`"),
        ("dict-based access-control check", b.ns("BM_DictHeavyAccessControl"),
         "`BM_DictHeavyAccessControl`"),
        ("static check of a 100-function script", b.ns("BM_StaticCheckLargeScript"),
         "`BM_StaticCheckLargeScript`"),
    ]
    return table(["quantity", "measured", "JSON row"],
                 [[q, fmt_ns(ns), row] for q, ns, row in rows])


def regenerate(text, tables):
    lines = text.split("\n")
    for key, body in tables.items():
        begin = lines.index("<!-- BEGIN GENERATED %s -->" % key)
        end = lines.index("<!-- END GENERATED %s -->" % key)
        lines[begin + 1:end] = body
    return "\n".join(lines)


def main(argv):
    check = argv[1:] == ["--check"]
    if argv[1:] and not check:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(DOC, encoding="utf-8") as f:
        old = f.read()
    new = regenerate(old, {
        "e2": e2_table(Bench("BENCH_interception.json")),
        "e2b": e2b_table(Bench("BENCH_script.json")),
    })
    if not check:
        with open(DOC, "w", encoding="utf-8") as f:
            f.write(new)
        return 0
    if new == old:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(True), new.splitlines(True), DOC, DOC + " (regenerated)"))
    print("%s: the generated tables are stale; run python3 bench/gen_tables.py"
          % DOC, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
