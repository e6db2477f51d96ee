#!/usr/bin/env python3
"""Interleaved A/B runs of the repo benchmark on a parent and a change tree.

    python3 tools/bench_ab.py --parent ../parent --change . \\
        --workloads bulk_local,cc_rmat --seeds 2001-2010 --log ab.jsonl
    python3 tools/bench_ab.py --summarize ab.jsonl
    python3 tools/bench_ab.py --selftest

Each tree runs its own `ygmbench/run.py`, which builds that tree's sources
into the tree's own `.bench_build/`; every run lasts the `run_seconds` of
BENCHMARK.json. Pair i runs one seed on both sides, the parent first when
i is even and the change first when i is odd, so a drift in host speed
does not favour one side. Every finished run is appended to the --log
file as one JSON line, so an interrupted A/B keeps its runs; --summarize
reprints the tables from such a file (runs pair by seed, so logs of
several invocations can be concatenated).

For each workload and each end-to-end metric of BENCHMARK.json (read only)
the summary, a Markdown table, gives each side's median [q1, q3], the
pairs the change won, and the median gap against the parent's
interquartile range (IQR) and against the metric's bound; every run
follows in pair order. A run that errored, reported `correct: false` or
counted failed operations is a failed run: it gives no value, and a pair
whose change run failed counts as lost. A gain is resolved when the
change wins at least nine in ten of all pairs run and the gap exceeds the
parent's IQR, and never when the change failed more runs than the
parent; a loss fails when it exceeds the bound; a metric whose parent IQR
exceeds the bound is unresolved unless every change run beats every
parent run. --extra adds per-layer metrics to the tables, without a bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")


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


def report(log, spec, extra=(), out=sys.stdout):
    """Markdown: one table per workload, then every run in pair order."""
    workloads = []
    for r in log:
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
    rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    per_layer = {m["name"]: m["better"] for m in spec.get("per_layer", [])}
    rows += [(n, per_layer.get(n, "lower"), None) for n in extra]
    for w in workloads:
        runs = [r for r in log if r["workload"] == w]
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


def selftest():
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
    import io
    buf = io.StringIO()
    report(log, spec, extra=["layer"], out=buf)
    text = buf.getvalue()
    check("| `rate` | 100 [99.25, 101] | 115.5 [" in text and
          "| 10/10 | 8.86 | gain resolved |" in text and
          "- `layer` change: 1.3 1.3" in text,
          "report prints the table rows, runs and extra metrics")
    check(load_spec()["end_to_end"], "BENCHMARK.json has end-to-end metrics")
    print("bench_ab selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="tree of the parent commit")
    ap.add_argument("--change", default=ROOT, help="tree of the change")
    ap.add_argument("--workloads", help="comma-separated workload names")
    ap.add_argument("--seeds", help="e.g. 2001-2010 or 5,7,9: one pair each")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", help="append each run here as a JSON line")
    ap.add_argument("--summarize", help="print the tables of a --log file")
    ap.add_argument("--extra", default="",
                    help="comma-separated per-layer metrics to add")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        return selftest()
    spec = load_spec()
    extra = [x for x in a.extra.split(",") if x]
    if a.summarize:
        with open(a.summarize) as f:
            log = [json.loads(l) for l in f if l.strip()]
        report(log, spec, extra)
        return 0
    if not (a.parent and a.workloads and a.seeds):
        ap.error("--parent, --workloads and --seeds are required")
    trees = {"parent": os.path.abspath(a.parent),
             "change": os.path.abspath(a.change)}
    log = []
    for w in a.workloads.split(","):
        for pair, seed in enumerate(parse_seeds(a.seeds)):
            for side in order(pair):
                res = run_once(trees[side], w, seed, spec["run_seconds"],
                               a.trace)
                rec = {"workload": w, "seed": seed, "pair": pair,
                       "side": side, "result": res}
                log.append(rec)
                if a.log:
                    with open(a.log, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                v = value(res, "msgs_per_s") if "error" not in res else None
                print("# %s seed %d %s: %s" % (
                    w, seed, side,
                    res.get("error") or "msgs_per_s %s" % fmt(v or 0)),
                    file=sys.stderr, flush=True)
    report(log, spec, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
