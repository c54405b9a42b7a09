#!/usr/bin/env python3
"""Collect, summarise and compare run sets of the lazyeye benchmark.

    # ten runs of one workload, seeds 1..10, appended to a JSONL run set
    python3 perfbench/compare.py collect --workload fault-hunt --seeds 1-10 \
        --out base.jsonl [--trace 0] [--seconds N]

    # per workload x metric: median, quartiles, spread (IQR / median), runs
    python3 perfbench/compare.py summary base.jsonl

    # parent vs change: one row per workload x end-to-end metric
    python3 perfbench/compare.py compare base.jsonl change.jsonl

Verdicts follow the choosing-metrics rules: "improved" needs the change to
win at least 9 in 10 seed-paired runs (ties count for neither) and the
medians to differ by more than the parent's own quartile spread; "worse"
means the change's median is worse than the parent's by more than the
metric's bound; when either side's spread (IQR / median) is wider than the
bound the row is "unresolved" unless every change run beats every parent
run. Tracing overhead per workload is 1 - trace.cells_per_s / cells_per_s
over the medians of traced and untraced runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def series(runs, workload, metric, trace):
    """(seed, value) of every run of `workload` that reported `metric`."""
    out = []
    for r in runs:
        if r["workload"] != workload or r["trace"] != trace:
            continue
        m = r["result"]["metrics"].get(metric)
        if m is not None:
            out.append((r["seed"], m["value"]))
    return out


def better_than(a, b, better):
    return a > b if better == "higher" else a < b


def verdict(base, change, better, bound):
    """Verdict for one workload x metric from seed-keyed run values."""
    b = [v for _, v in base]
    c = [v for _, v in change]
    b1, bmed, b3 = quartiles(b)
    _, cmed, _ = quartiles(c)
    by_seed = dict(base)
    pairs = [(v, by_seed[s]) for s, v in change if s in by_seed]
    wins = sum(1 for cv, bv in pairs if better_than(cv, bv, better))
    if (pairs and wins >= 0.9 * len(pairs) and better_than(cmed, bmed, better)
            and abs(cmed - bmed) > (b3 - b1)):
        return "improved"
    if max(spread(b), spread(c)) > bound:
        all_better = all(better_than(cv, bv, better) for cv in c for bv in b)
        return "unchanged" if all_better else "unresolved"
    worse_by = (bmed - cmed) / bmed if better == "higher" else (cmed - bmed) / bmed
    return "worse" if worse_by > bound else "unchanged"


def fmt(v):
    return f"{v:.6g}"


def summary(args):
    spec = load_spec()
    runs = load_runs(args.runs)
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in spec["workloads"]:
            for m in metrics:
                s = series(runs, w["name"], m["name"], trace)
                if not s:
                    continue
                values = [v for _, v in s]
                q1, med, q3 = quartiles(values)
                bound = m.get("bound")
                flag = ""
                if bound is not None and m["name"] != "setup_s":
                    flag = "  ok" if spread(values) < bound / 3 else "  WIDE"
                print(f"{w['name']:<20} {m['name']:<42} n={len(values):<3} median={fmt(med):<12} "
                      f"q1={fmt(q1):<12} q3={fmt(q3):<12} spread={spread(values):.4f}{flag}")
    bad = [r for r in runs if not r["result"]["correct"]]
    print(f"{len(runs)} runs, {len(bad)} incorrect")
    return 1 if bad else 0


def compare(args):
    spec = load_spec()
    base, change = load_runs(args.base), load_runs(args.change)
    print(f"{'workload':<20} {'metric':<14} {'parent median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} {'bound':<6} verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            b = series(base, w["name"], m["name"], 0)
            c = series(change, w["name"], m["name"], 0)
            if not b or not c:
                continue
            bq, cq = quartiles([v for _, v in b]), quartiles([v for _, v in c])
            v = verdict(b, c, m["better"], m["bound"])
            print(f"{w['name']:<20} {m['name']:<14} "
                  f"{fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}]".ljust(74) +
                  f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]".ljust(38) +
                  f" {m['bound']:<6} {v}")
        for label, runs in (("parent", base), ("change", change)):
            untraced = [v for _, v in series(runs, w["name"], "cells_per_s", 0)]
            traced = [v for _, v in series(runs, w["name"], "trace.cells_per_s", 1)]
            if untraced and traced:
                overhead = 1 - statistics.median(traced) / statistics.median(untraced)
                print(f"{w['name']:<20} tracing overhead ({label}): {overhead:.1%} of cells_per_s")
    print("\nruns:")
    for label, runs in (("parent", base), ("change", change)):
        for r in runs:
            values = " ".join(f"{k}={fmt(v['value'])}" for k, v in sorted(r["result"]["metrics"].items())
                              if r["trace"] == 0)
            print(f"  {label} {r['workload']} seed={r['seed']} trace={r['trace']} "
                  f"correct={r['result']['correct']} {values}")
    return 0


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    failures = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
               "--record", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
        print(f"seed {seed}: exit {proc.returncode} {last[0][:200]}", flush=True)
        failures += proc.returncode != 0
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--seconds", type=int)
    p = sub.add_parser("summary")
    p.add_argument("runs")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("change")
    args = parser.parse_args(argv)
    return {"collect": collect, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
