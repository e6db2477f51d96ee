#!/usr/bin/env python3
"""Interleaved A/B runs of the repo benchmark and the bench binaries.

    python3 tools/bench_ab.py --parent ../parent --change . \\
        --workloads bulk_local,cc_rmat --seeds 2001-2010 --log ab.jsonl
    python3 tools/bench_ab.py --workloads perf_live,perf_overlap \\
        --seeds 1-10 --log runs.jsonl --write-bench .
    python3 tools/bench_ab.py --summarize ab.jsonl
    python3 tools/bench_ab.py --selftest [REPORT.json ...]

This is the one place that repeats, alternates and summarizes
measurements. A workload is either one of BENCHMARK.json's or one of the
bench binaries that make the BENCH_*.json files (BENCHES below). A repo
benchmark run is one `ygmbench/run.py` call in its tree, which builds the
tree's sources into the tree's own `.bench_build/` and lasts the
`run_seconds` of BENCHMARK.json. A bench run is one call of
`<tree>/build-bench/bench/<name> --bench-json=<file>`, built with the
Release `bench` CMake preset (configured first when `build-bench/` is
missing) and given the arguments its BENCH file is captured with; its
report's metrics are the run's result. Pair i runs one seed on both sides,
the parent first when i is even and the change first when i is odd, so a
drift in host speed does not favour one side; bench binaries take no seed,
so --seeds only numbers their pairs. Without --parent only the change runs.
Every finished run is appended to the --log file as one JSON line, so an
interrupted A/B keeps its runs; --summarize reprints the tables from such a
file (runs pair by seed, so logs of several invocations can be
concatenated), and --write-bench writes the BENCH file of every bench in
the log from the change's runs.

For each workload and each end-to-end metric of BENCHMARK.json (read only),
or each metric of a bench report, the summary, a Markdown table, gives each
side's median [q1, q3], the pairs the change won, and the median gap
against the parent's interquartile range (IQR) and against the metric's
bound; every run follows in pair order. A run that errored, reported
`correct: false`, counted failed operations, or (a bench) exited non-zero
or left no readable report is a failed run: it gives no value, and a pair
whose change run failed counts as lost. A gain is resolved when the change
wins at least nine in ten of all pairs run and the gap exceeds the parent's
IQR, and never when the change failed more runs than the parent; a loss
fails when it exceeds the bound; a metric whose parent IQR exceeds the
bound is unresolved unless every change run beats every parent run.
--extra adds per-layer metrics to the tables, without a bound. Without a
parent the table gives each metric's median [q1, q3] and run count. The
documented acceptance gates (GATES below) are judged on the change's runs:
a gate passes when its metric's whole IQR passes the threshold, fails when
the whole IQR fails it, and is unresolved when the IQR straddles it.
"""
import argparse
import glob
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")

# Bench binaries (the names --workloads takes next to BENCHMARK.json's):
# the BENCH file their runs make and the arguments it is captured with.
BENCHES = {
    "perf_hotpath": ("BENCH_hotpath.json", []),
    "perf_overlap": ("BENCH_overlap.json", []),
    "perf_live": ("BENCH_live.json", []),
    "perf_flood": ("BENCH_flood.json", []),
    "micro_substrates": ("BENCH_transport.json", ["--benchmark_filter=^$"]),
}

# The documented acceptance gates: one bench metric against one threshold.
# A gate with `counted_if` (metric, minimum) counts only the runs in which
# that metric reaches the minimum: the sampler's cost is only measured in a
# run where the sampler ticked.
GATES = [
    {"bench": "perf_overlap", "metric": "overlap.engine_vs_polling_ratio",
     "op": ">=", "threshold": 1.2},
    {"bench": "perf_live", "metric": "live.overhead_pct_100",
     "op": "<=", "threshold": 2.0,
     "counted_if": ("live.sample_100.ticks", 10)},
    {"bench": "micro_substrates",
     "metric": "substrate.mailbox_local.shm_vs_socket_ratio",
     "op": ">=", "threshold": 1.5},
]

# Bench metrics where more is better; every other bench metric is a time,
# a cost or a size, where less is.
HIGHER_BETTER = ("per_sec", "_ratio", ".overlap", "hit_pct", ".ticks")


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def seed_ranges(seeds):
    """The inverse of parse_seeds: [3, 4, 5, 9] -> '3-5,9'."""
    parts, seeds = [], sorted(seeds)
    for i, x in enumerate(seeds):
        if i and x == seeds[i - 1] + 1:
            parts[-1][1] = x
        else:
            parts.append([x, x])
    return ",".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in parts)


def order(pair):
    """Which side runs first in pair `pair`: the parent on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(tree, workload, seed, seconds, trace):
    """One ygmbench run in `tree`: its result line, or {"error": ...}."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, "ygmbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                             text=True, timeout=seconds + 600)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        return {"error": "exit %d: %s" % (out.returncode,
                                          out.stderr.strip()[-300:])}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"error": "no result line"}


# What read_report raises on a missing, malformed or misshapen report.
UNREADABLE = (OSError, ValueError, KeyError, TypeError, AttributeError)


def read_report(path):
    """A --bench-json report as a run result: the metrics of all its
    sections, in the shape of a ygmbench result line."""
    with open(path) as f:
        doc = json.load(f)
    metrics = {}
    for section in doc["sections"]:
        for name, v in section["metrics"].items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError("metric %s is not a number" % name)
            metrics[name] = {"value": v}
    if not isinstance(doc["bench"], str) or not metrics:
        raise ValueError("no bench name or no metrics")
    return {"bench": doc["bench"], "correct": True, "failed": 0,
            "metrics": metrics}


def run_report(cmd, cwd, timeout=900):
    """One call of a bench command given --bench-json=<file>: its report as
    a run result, or {"error": ...} when it exits non-zero, times out or
    leaves no readable report. No YGM_* variable reaches the bench, as
    ygmbench/run.py keeps them from its program, so a stray one in the
    caller's shell cannot change a capture."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("YGM_")}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        try:
            out = subprocess.run(cmd + ["--bench-json=" + path], cwd=cwd,
                                 env=env, capture_output=True, text=True,
                                 timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        if out.returncode != 0:
            return {"error": "exit %d: %s" % (out.returncode,
                                              out.stderr.strip()[-300:])}
        try:
            return read_report(path)
        except UNREADABLE as e:
            return {"error": "no readable report: %s" % e}


def build_bench(tree, name):
    """Build bench `name` in the tree's Release build-bench/, configuring
    it first when missing; None, or why the build failed."""
    steps = [["cmake", "--build", "--preset", "bench", "--target", name,
              "-j", "4"]]
    if not os.path.isdir(os.path.join(tree, "build-bench")):
        steps.insert(0, ["cmake", "--preset", "bench"])
    for cmd in steps:
        out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
        if out.returncode != 0:
            return "%s: exit %d: %s" % (" ".join(cmd), out.returncode,
                                        (out.stdout + out.stderr)[-300:])
    return None


def host_stamp(tree):
    """CPU model, core count, compiler and build type of build-bench/."""
    def grep(pattern, paths):
        for path in paths:
            try:
                with open(path) as f:
                    m = re.search(pattern, f.read(), re.M)
            except OSError:
                continue
            if m:
                return m.group(1)
        return ""
    build = os.path.join(tree, "build-bench")
    compiler = glob.glob(os.path.join(build, "CMakeFiles", "*",
                                      "CMakeCXXCompiler.cmake"))
    return {"cpu": grep(r"^model name\s*: (.*)$", ["/proc/cpuinfo"]),
            "cores": os.cpu_count(),
            "compiler": ("%s %s" % (
                grep(r'COMPILER_ID "([^"]*)"', compiler),
                grep(r'COMPILER_VERSION "([^"]*)"', compiler))).strip(),
            "build_type": grep(r"^CMAKE_BUILD_TYPE:\w+=(.*)$",
                               [os.path.join(build, "CMakeCache.txt")])}


def run_bench(tree, name, build_error):
    """One call of bench `name` in `tree`: its run result, stamped with the
    command, the host and the date."""
    cmd = [os.path.join("build-bench", "bench", name)] + BENCHES[name][1]
    if build_error:
        res = {"error": "build failed: " + build_error}
    else:
        res = run_report([os.path.join(tree, cmd[0])] + cmd[1:], tree)
        if "error" not in res and res["bench"] != name:
            res = {"error": "report of bench %s" % res["bench"]}
    res.update(command=" ".join(cmd + ["--bench-json=<file>"]),
               host=host_stamp(tree),
               date=time.strftime("%Y-%m-%d", time.gmtime()))
    return res


def quartiles(xs):
    """(q1, median, q3), linear interpolation between order statistics."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def failed(result):
    """A run that errored, gave a wrong answer or counted failed ops."""
    return ("error" in result or result.get("correct") is not True or
            result.get("failed", 0) != 0)


def value(result, name):
    """The metric's value, or None when the run failed or lacks it."""
    m = None if failed(result) else result.get("metrics", {}).get(name)
    return None if m is None else m["value"]


def summarize_metric(runs, name, better, bound):
    """Statistics of one metric over runs [{seed, side, result}], paired by
    seed (so logs of several invocations combine); None when no seed has
    a value on both sides. Every pair with a failed run counts in the win
    rule's denominator, and one whose change run failed is lost."""
    by_pair, lost = {}, set()
    for r in runs:
        v = value(r["result"], name)
        if v is not None:
            by_pair.setdefault(r["seed"], {})[r["side"]] = v
        elif failed(r["result"]):
            lost.add(r["seed"])
    pairs = sorted(p for p, s in by_pair.items() if len(s) == 2)
    if not pairs:
        return None
    n_run = len(set(pairs) | lost)
    bad = health(runs)
    sign = 1.0 if better == "higher" else -1.0
    vals = {s: [by_pair[p][s] for p in pairs] for s in SIDES}
    pq1, pmed, pq3 = quartiles(vals["parent"])
    cq1, cmed, cq3 = quartiles(vals["change"])
    wins = sum(1 for p in pairs
               if sign * (by_pair[p]["change"] - by_pair[p]["parent"]) > 0)
    gap = cmed - pmed  # signed, in the metric's unit
    rel = gap / pmed if pmed else 0.0
    iqr = pq3 - pq1
    s = {"name": name, "better": better, "bound": bound, "n": n_run,
         "parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
         "runs": vals, "wins": wins, "gap": gap, "rel": rel, "iqr": iqr,
         "gap_over_iqr": abs(gap) / iqr if iqr else float("inf")}
    improved = sign * gap > 0
    if sign > 0:
        every_run_better = min(vals["change"]) > max(vals["parent"])
    else:
        every_run_better = max(vals["change"]) < min(vals["parent"])
    if sum(bad["change"][1:]) > sum(bad["parent"][1:]):
        s["verdict"] = "change failed more runs than the parent"
    elif improved and wins * 10 >= 9 * n_run and abs(gap) > iqr:
        s["verdict"] = "gain resolved"
    elif bound is None:
        s["verdict"] = ""
    elif not improved and abs(rel) > bound:
        s["verdict"] = "WORSE than the bound"
    elif iqr > bound * abs(pmed):
        s["verdict"] = ("every change run better" if every_run_better else
                        "unresolved (parent IQR exceeds the bound)")
    else:
        s["verdict"] = "within bound"
    return s


def health(runs):
    """Per side: runs, runs with an error or no result, other failed runs
    (incorrect, or failed operations)."""
    h = {}
    for side in SIDES:
        mine = [r["result"] for r in runs if r["side"] == side]
        errors = sum(1 for r in mine if "error" in r)
        h[side] = (len(mine), errors, sum(map(failed, mine)) - errors)
    return h


def fmt(v):
    return "%.4g" % v


def metric_rows(workload, runs, spec, extra):
    """(name, better, bound) of each metric in the workload's table: every
    metric of a bench's reports, or BENCHMARK.json's end-to-end metrics and
    the --extra ones."""
    if workload in BENCHES:
        names = sorted({n for r in runs
                        for n in r["result"].get("metrics", {})})
        return [(n, "higher" if n.endswith(HIGHER_BETTER) else "lower", None)
                for n in names]
    rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    per_layer = {m["name"]: m["better"] for m in spec.get("per_layer", [])}
    return rows + [(n, per_layer.get(n, "lower"), None) for n in extra]


def change_values(runs, name):
    """The metric's values over the change's runs that have it."""
    return [v for v in (value(r["result"], name) for r in runs
                        if r["side"] == "change") if v is not None]


def judge_gate(runs, gate):
    """The gate judged on the change's runs (those its `counted_if` admits):
    pass when the metric's whole IQR passes the threshold, fail when the
    whole IQR fails it, unresolved when the IQR straddles it."""
    need = gate.get("counted_if")
    counted = [r for r in runs if r["side"] == "change" and (
        not need or (value(r["result"], need[0]) or 0) >= need[1])]
    vals = change_values(counted, gate["metric"])
    g = dict(gate, n=len(vals), runs=sum(r["side"] == "change" for r in runs))
    if not vals:
        g["verdict"] = "unresolved (no counted runs)"
        return g
    q1, med, q3 = quartiles(vals)
    g["median"] = (med, q1, q3)
    t = gate["threshold"]
    ok = (lambda x: x >= t) if gate["op"] == ">=" else (lambda x: x <= t)
    if ok(q1) and ok(q3):
        g["verdict"] = "pass"
    elif not ok(q1) and not ok(q3):
        g["verdict"] = "fail"
    else:
        g["verdict"] = "unresolved (median %s)" % (
            "passes" if ok(med) else "fails")
    return g


def report(log, spec, extra=(), out=sys.stdout):
    """Markdown: one table per workload, then every run in pair order (A/B)
    or each metric over the change's runs (no parent), then its gates."""
    workloads = []
    for r in log:
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
    for w in workloads:
        runs = [r for r in log if r["workload"] == w]
        rows = metric_rows(w, runs, spec, extra)
        if any(r["side"] == "parent" for r in runs):
            report_pairs(w, runs, rows, out)
        else:
            report_change(w, runs, rows, out)
        gates = [judge_gate(runs, g) for g in GATES if g["bench"] == w]
        if gates:
            print("| gate | median [q1, q3] | runs counted | verdict |\n"
                  "|---|---|---|---|", file=out)
            for g in gates:
                print("| `%s` %s %g | %s | %d/%d | %s |" % (
                    g["metric"], g["op"], g["threshold"],
                    "%s [%s, %s]" % tuple(map(fmt, g["median"]))
                    if "median" in g else "-", g["n"], g["runs"],
                    g["verdict"]), file=out)
            print(file=out)


def report_pairs(w, runs, rows, out):
    h = health(runs)
    print("`%s`, %d pairs, seeds %s; runs / errors / other failed: parent "
          "%d/%d/%d, change %d/%d/%d\n" % (
              (w, len({r["seed"] for r in runs}),
               seed_ranges({r["seed"] for r in runs}))
              + h["parent"] + h["change"]), file=out)
    print("| metric | parent | change | median gap | wins | gap / parent "
          "IQR | verdict |\n|---|---|---|---|---|---|---|", file=out)
    stats = [s for s in (summarize_metric(runs, n, b, bd)
                         for n, b, bd in rows) if s is not None]
    for s in stats:
        cell = lambda side: "%s [%s, %s]" % tuple(map(fmt, s[side]))
        print("| `%s` | %s | %s | %+.1f%%%s | %d/%d | %.2f | %s |" % (
            s["name"], cell("parent"), cell("change"), 100 * s["rel"],
            "" if s["bound"] is None else " (bound %g%%)" % (
                100 * s["bound"]),
            s["wins"], s["n"], s["gap_over_iqr"], s["verdict"]),
            file=out)
    print(file=out)
    for s in stats:
        for side in SIDES:
            print("- `%s` %s: %s" % (s["name"], side, " ".join(
                fmt(v) for v in s["runs"][side])), file=out)
    print(file=out)


def report_change(w, runs, rows, out):
    seeds = seed_ranges({r["seed"] for r in runs})
    print("`%s`, %d runs, seeds %s; runs / errors / other failed: "
          "%d/%d/%d\n" % ((w, len(runs), seeds) + health(runs)["change"]),
          file=out)
    print("| metric | median [q1, q3] | n |\n|---|---|---|", file=out)
    for name, _, _ in rows:
        vals = change_values(runs, name)
        if vals:
            q1, med, q3 = quartiles(vals)
            print("| `%s` | %s [%s, %s] | %d |" % (
                name, fmt(med), fmt(q1), fmt(q3), len(vals)), file=out)
    print(file=out)


def bench_file(runs, name):
    """The BENCH file of bench `name` from the change's runs: per metric the
    median, q1, q3 and n, the gates' verdicts, the host stamp, the command
    and the date of the last run."""
    mine = [r for r in runs if r["side"] == "change"]
    ok = [r["result"] for r in mine if not failed(r["result"])]
    if not ok:
        return None
    rounded = lambda v: float("%.6g" % v)
    metrics = {}
    for n, _, _ in metric_rows(name, mine, None, ()):
        vals = change_values(mine, n)
        q1, med, q3 = quartiles(vals)
        metrics[n] = {"median": rounded(med), "q1": rounded(q1),
                      "q3": rounded(q3), "n": len(vals)}
    gates = [{k: g[k] for k in ("metric", "op", "threshold", "n", "verdict")}
             for g in (judge_gate(mine, g) for g in GATES
                       if g["bench"] == name)]
    return {"bench": name, "command": ok[-1]["command"],
            "date": ok[-1]["date"], "host": ok[-1]["host"],
            "runs": len(mine), "failed_runs": len(mine) - len(ok),
            "gates": gates, "metrics": metrics}


def write_benches(log, directory):
    """Write the BENCH file of every bench in the log into `directory`."""
    for name, (path, _) in BENCHES.items():
        doc = bench_file([r for r in log if r["workload"] == name], name)
        if doc is not None:
            with open(os.path.join(directory, path), "w") as f:
                json.dump(doc, f, indent=1)
                f.write("\n")
            print("bench_ab: wrote %s" % os.path.join(directory, path),
                  file=sys.stderr)


def selftest(reports=()):
    spec = {"end_to_end": [
        {"name": "rate", "better": "higher", "bound": 0.2},
        {"name": "time", "better": "lower", "bound": 0.2},
        {"name": "noisy", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "layer", "better": "lower"}]}
    parent_rate = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change_rate = [115, 117, 99, 116, 114, 118, 119, 113, 116, 115]
    parent_time = [1.0] * 10
    change_time = [1.3] * 10
    noisy_p = [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]
    log = []
    for i in range(10):
        for side, rate, t, nz in (
                ("parent", parent_rate[i], parent_time[i], noisy_p[i]),
                ("change", change_rate[i], change_time[i], noisy_p[i])):
            log.append({"workload": "w", "seed": 100 + i, "pair": i,
                        "side": side, "result": {
                            "correct": True, "failed": 0, "metrics": {
                                "rate": {"value": rate},
                                "time": {"value": t},
                                "noisy": {"value": nz},
                                "layer": {"value": t}}}})
    ok = True

    def check(cond, what):
        nonlocal ok
        if not cond:
            print("bench_ab selftest FAILED: " + what)
            ok = False

    check(order(0) == ("parent", "change") and
          order(1) == ("change", "parent"), "pairs alternate the first side")
    check(parse_seeds("3-5,9") == [3, 4, 5, 9] and
          seed_ranges([9, 3, 5, 4]) == "3-5,9", "seed ranges round-trip")
    check(quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25),
          "quartiles interpolate")
    runs = [r for r in log if r["workload"] == "w"]
    r = summarize_metric(runs, "rate", "higher", 0.2)
    check(r["n"] == 10, "ten pairs")
    check(r["parent"] == (100.0, 99.25, 101.0), "parent median [q1, q3]")
    check(r["change"][0] == 115.5, "change median")
    check(r["wins"] == 10, "every pair won")
    check(abs(r["gap_over_iqr"] - 15.5 / 1.75) < 1e-9, "gap over parent IQR")
    check(r["verdict"] == "gain resolved", "rate gain resolved")
    t = summarize_metric(runs, "time", "lower", 0.2)
    check(t["wins"] == 0 and t["verdict"] == "WORSE than the bound",
          "a 30% slower time exceeds its 20% bound")
    n = summarize_metric(runs, "noisy", "lower", 0.1)
    check(n["verdict"].startswith("unresolved"), "spread wider than the bound")

    def pairs_of(parent, change):
        return [{"seed": i, "side": side, "result": {
            "correct": True, "failed": 0, "metrics": {"x": {"value": v}}}}
            for i, pc in enumerate(zip(parent, change))
            for side, v in zip(SIDES, pc)]

    def with_result(log, seed, side, result):
        """`log` with the run of (seed, side) replaced or added."""
        return [r for r in log if (r["seed"], r["side"]) != (seed, side)] + [
            {"workload": "w", "seed": seed, "side": side, "result": result}]

    parent_110 = dict(log[0]["result"])
    errored = with_result(with_result(runs, 110, "parent", parent_110),
                          110, "change", {"error": "exit 1"})
    e = summarize_metric(errored, "rate", "higher", 0.2)
    check(e["n"] == 11 and e["wins"] == 10,
          "a pair whose change run errored is run and lost")
    check(e["verdict"] == "change failed more runs than the parent",
          "no gain when the change errored more often")
    check(health(errored)["change"] == (11, 1, 0), "errored run counted")
    wrong = dict(runs[1]["result"], correct=False)
    incorrect = with_result(runs, 100, "change", wrong)
    i = summarize_metric(incorrect, "rate", "higher", 0.2)
    check(i["n"] == 10 and i["wins"] == 9 and len(i["runs"]["change"]) == 9,
          "a correct:false change run gives no value and loses its pair")
    check(i["verdict"] == "change failed more runs than the parent",
          "no gain when the change answered wrong more often")
    check(health(incorrect)["change"] == (10, 0, 1), "incorrect run counted")
    both = with_result(with_result(runs, 101, "parent", {"error": "exit 1"}),
                       102, "change", dict(wrong, correct=True, failed=3))
    b = summarize_metric(both, "rate", "higher", 0.2)
    check(b["n"] == 10 and b["wins"] == 8 and b["verdict"] != "gain resolved",
          "failed pairs stay in the nine-in-ten rule's denominator")

    check(summarize_metric(pairs_of([10, 14, 10, 14], [5, 6, 7, 4]), "x",
                           "lower", 0.1)["verdict"] == "gain resolved",
          "a wide parent spread does not hide a gain beyond it")
    check(summarize_metric(pairs_of([10, 30, 10, 30], [8, 9, 7, 6]), "x",
                           "lower", 0.1)["verdict"] ==
          "every change run better", "wide spread, change better every run")
    check(summarize_metric(runs, "missing", "lower", 0.1) is None,
          "absent metric")
    buf = io.StringIO()
    report(log, spec, extra=["layer"], out=buf)
    text = buf.getvalue()
    check("| `rate` | 100 [99.25, 101] | 115.5 [" in text and
          "| 10/10 | 8.86 | gain resolved |" in text and
          "- `layer` change: 1.3 1.3" in text,
          "report prints the table rows, runs and extra metrics")
    check(load_spec()["end_to_end"], "BENCHMARK.json has end-to-end metrics")

    # Bench runs: canned reports through the reader and the runner.
    def doc(bench, *sections):
        return {"bench": bench, "sections": [
            {"title": "", "note": "", "tables": [], "metrics": m}
            for m in sections]}

    writes = ("import json, sys; json.dump(%s, open(sys.argv[-1]"
              ".split('=', 1)[1], 'w'))")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        with open(path, "w") as f:
            json.dump(doc("perf_live", {"a": 1.5}, {"b": 2}), f)
        r = read_report(path)
        check(r["bench"] == "perf_live" and value(r, "a") == 1.5 and
              value(r, "b") == 2, "the reader takes every section's metrics")
        for bad in (doc("x", {"a": "fast"}), doc("x", {}), {"bench": "x"}):
            with open(path, "w") as f:
                json.dump(bad, f)
            try:
                read_report(path)
                check(False, "the reader rejects %s" % json.dumps(bad))
            except (ValueError, KeyError):
                pass
        report_x = writes % json.dumps(doc("perf_flood", {"x": 3}))
        ran = run_report([sys.executable, "-c", report_x], tmp)
        check(value(ran, "x") == 3 and not failed(ran), "a run's report read")
        # The bench sees none of the caller's YGM_* variables.
        counts_ygm = writes % ('{"bench": "perf_flood", "sections": [{'
                               '"metrics": {"ygm_vars": len([k for k in '
                               '__import__("os").environ if '
                               'k.startswith("YGM_")])}}]}')
        stray = os.environ.get("YGM_TRANSPORT")
        os.environ["YGM_TRANSPORT"] = "shm"
        try:
            ran = run_report([sys.executable, "-c", counts_ygm], tmp)
        finally:
            if stray is None:
                del os.environ["YGM_TRANSPORT"]
            else:
                os.environ["YGM_TRANSPORT"] = stray
        check(value(ran, "ygm_vars") == 0,
              "a bench call drops the caller's YGM_* variables")
        for what, code in (("exits non-zero", report_x + "; sys.exit(3)"),
                           ("writes no report", "pass"),
                           ("writes no JSON", "import sys; open(sys.argv[-1]"
                            ".split('=', 1)[1], 'w').write('{')")):
            res = run_report([sys.executable, "-c", code], tmp)
            check("error" in res and failed(res) and value(res, "x") is None,
                  "a run that %s failed" % what)

    def bench_runs(name, values, **more):
        """Change runs of bench `name` whose gate metric takes `values`."""
        gate = next(g["metric"] for g in GATES if g["bench"] == name)
        return [{"workload": name, "seed": i + 1, "pair": i, "side": "change",
                 "result": {"correct": True, "failed": 0, "metrics": {
                     m: {"value": v}
                     for m, v in dict(more, **{gate: x}).items()}}}
                for i, x in enumerate(values)]

    ratios = bench_runs("perf_overlap", [2.0, 2.5, 3.0, 2.2, 2.8])
    buf = io.StringIO()
    report(ratios, spec, out=buf)
    text = buf.getvalue()
    check("`perf_overlap`, 5 runs, seeds 1-5; runs / errors / other failed: "
          "5/0/0" in text and
          "| `overlap.engine_vs_polling_ratio` | 2.5 [2.2, 2.8] | 5 |" in text
          and "| `overlap.engine_vs_polling_ratio` >= 1.2 | 2.5 [2.2, 2.8] "
          "| 5/5 | pass |" in text and "parent" not in text,
          "single-tree summary prints medians, quartiles and the gate")
    for g in GATES:
        t, up = g["threshold"], 1 if g["op"] == ">=" else -1
        ticks = dict([g["counted_if"]] if "counted_if" in g else [])
        for want, vals in (("pass", [t + up * x for x in (1, 2, 3, 4)]),
                           ("fail", [t - up * x for x in (1, 2, 3, 4)]),
                           ("unresolved (median passes)",
                            [t - up, t + up, t + up, t + 2 * up, t - 2 * up])):
            got = judge_gate(bench_runs(g["bench"], vals, **ticks), g)
            check(got["verdict"] == want and got["n"] == len(vals),
                  "%s gate: %s, got %s" % (g["bench"], want, got["verdict"]))
    live = next(g for g in GATES if g["bench"] == "perf_live")
    few_ticks = bench_runs("perf_live", [9.0] * 6, **{
        "live.sample_100.ticks": 3}) + [
        dict(r, seed=r["seed"] + 6) for r in bench_runs(
            "perf_live", [0.5] * 4, **{"live.sample_100.ticks": 12})]
    got = judge_gate(few_ticks, live)
    check(got["verdict"] == "pass" and (got["n"], got["runs"]) == (4, 10),
          "the live gate counts only runs whose sampler ticked 10 times")
    errored_gate = judge_gate(ratios + [{"workload": "perf_overlap", "seed": 9,
                                         "side": "change",
                                         "result": {"error": "exit 1"}}],
                              GATES[0])
    check((errored_gate["n"], errored_gate["runs"]) == (5, 6),
          "a failed run gives a gate no value")
    for r in ratios:
        r["result"].update(command="perf_overlap", host={"cores": 4},
                           date="2026-01-01")
    bench = bench_file(ratios, "perf_overlap")
    check(bench["metrics"]["overlap.engine_vs_polling_ratio"] == {
        "median": 2.5, "q1": 2.2, "q3": 2.8, "n": 5} and
          bench["gates"][0]["verdict"] == "pass" and bench["runs"] == 5 and
          bench["host"] == {"cores": 4} and
          bench["command"] == "perf_overlap",
          "BENCH file: quartiles, gates, host stamp and command")

    for path in reports:
        try:
            r = read_report(path)
        except UNREADABLE as e:
            check(False, "read %s: %s" % (path, e))
            continue
        needed = [m for g in GATES if g["bench"] == r["bench"]
                  for m in [g["metric"]] + list(g.get("counted_if", ())[:1])]
        check(r["bench"] in BENCHES, "%s: unknown bench %s" % (
            path, r["bench"]))
        check(all(m in r["metrics"] for m in needed),
              "%s: the report has the gate metrics %s" % (path, needed))
        print("bench_ab: read %s: %s, %d metrics" % (
            path, r["bench"], len(r["metrics"])))
    print("bench_ab selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="tree of the parent commit (without "
                    "it, only the change runs)")
    ap.add_argument("--change", default=ROOT, help="tree of the change")
    ap.add_argument("--workloads", help="comma-separated workload names: "
                    "BENCHMARK.json's or bench binaries (%s)" %
                    ", ".join(BENCHES))
    ap.add_argument("--seeds", help="e.g. 2001-2010 or 5,7,9: one pair each")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", help="append each run here as a JSON line")
    ap.add_argument("--summarize", help="print the tables of a --log file")
    ap.add_argument("--write-bench", metavar="DIR",
                    help="write the BENCH file of every bench in the run "
                    "log into DIR, from the change's runs")
    ap.add_argument("--extra", default="",
                    help="comma-separated per-layer metrics to add")
    ap.add_argument("--selftest", action="store_true",
                    help="check the statistics on canned runs, and read "
                    "the bench reports named after it")
    ap.add_argument("reports", nargs="*", help=argparse.SUPPRESS)
    a = ap.parse_args()
    if a.selftest:
        return selftest(a.reports)
    if a.reports:
        ap.error("report files are only read with --selftest")
    spec = load_spec()
    extra = [x for x in a.extra.split(",") if x]
    if a.summarize:
        with open(a.summarize) as f:
            log = [json.loads(l) for l in f if l.strip()]
        report(log, spec, extra)
        if a.write_bench:
            write_benches(log, a.write_bench)
        return 0
    if not (a.workloads and a.seeds):
        ap.error("--workloads and --seeds are required")
    trees = {"change": os.path.abspath(a.change)}
    if a.parent:
        trees["parent"] = os.path.abspath(a.parent)
    log = []
    for w in a.workloads.split(","):
        built = {side: build_bench(tree, w) for side, tree in trees.items()
                 } if w in BENCHES else {}
        for pair, seed in enumerate(parse_seeds(a.seeds)):
            for side in (order(pair) if a.parent else ("change",)):
                if w in BENCHES:
                    res = run_bench(trees[side], w, built[side])
                else:
                    res = run_once(trees[side], w, seed, spec["run_seconds"],
                                   a.trace)
                rec = {"workload": w, "seed": seed, "pair": pair,
                       "side": side, "result": res}
                log.append(rec)
                if a.log:
                    with open(a.log, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                shown = ([g["metric"] for g in GATES if g["bench"] == w]
                         if w in BENCHES else ["msgs_per_s"])
                print("# %s seed %d %s: %s" % (
                    w, seed, side, res.get("error") or ", ".join(
                        "%s %s" % (m, fmt(value(res, m) or 0))
                        for m in shown) or "ok"), file=sys.stderr, flush=True)
    report(log, spec, extra)
    if a.write_bench:
        write_benches(log, a.write_bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
