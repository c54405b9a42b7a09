#!/usr/bin/env python3
"""Build the lazyeye benchmark program, run one workload once, print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--record <file.jsonl>]

Run from the root of a checkout. The benchmark program (perfbench/src, built with
perfbench/CMakeLists.txt in Release into .bench_build/) runs the workload;
this wrapper measures set-up time across process starts, records the
environment, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer ones (from the traced
executable, which counts allocations). --record appends the full run record
(environment, checks, every metric) to a JSONL file for compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORK_DIR = ROOT / ".bench_build" / "work"
TRACE_DIR = ROOT / ".bench_build" / "traces"
TIMED_EXE = "lazyeye_perfbench"
TRACED_EXE = "lazyeye_perfbench_traced"

# Set-up time is the median over this many process starts (the measured run
# is one of them); set-up runs cost one warm-up pass each.
SETUP_SAMPLES = 9
# The whole run must end within 180 s; keep a margin for this wrapper.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--record", help="append the full run record to this JSONL file")
    args = parser.parse_args(argv)
    args.trace = args.trace == "1"
    return args


def _seed(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer: {text!r}")
    value = int(text)
    if value >= 2**63:
        raise argparse.ArgumentTypeError(f"seed too large: {text}")
    return value


def _seconds(text):
    if not text.isdigit() or not 1 <= int(text) <= 60:
        raise argparse.ArgumentTypeError(f"seconds must be an integer in 1..60: {text!r}")
    return int(text)


def build():
    """Configures (once) and builds both benchmark executables in Release."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no lazyeye sources next to perfbench/ (expected CMakeLists.txt and src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", TIMED_EXE, TRACED_EXE])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr)[-4000:]
            raise BenchError(f"build step failed: {' '.join(cmd)}\n{tail}")


def run_program(exe, args, extra, timeout):
    """Runs the benchmark program once; returns (report dict, launch time in ns)."""
    cmd = [str(BUILD_DIR / exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"] + extra
    launched = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"lazyeye_perfbench timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"lazyeye_perfbench exited {proc.returncode}: {' '.join(cmd)}\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("lazyeye_perfbench printed no report")
    return json.loads(lines[-1]), launched


def setup_seconds(report, launched):
    """Launch to first timed cell, at reference speed (perfbench/src/speed.h)."""
    return (report["setup_end_ns"] - launched) / 1e9 * report["setup_scale"]


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (longest /proc/mounts prefix)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(report, work_dir):
    def git(*cmd):
        try:
            out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=10)
            return out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    info = report.get("info", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "compiler": info.get("compiler"),
        "cxx_flags": info.get("cxx_flags"),
        "build_type": info.get("build_type"),
        "workers": report.get("workers"),
        "journal_fs": filesystem_of(work_dir),
        "commit": git("rev-parse", "HEAD") or "unknown (not a git checkout)",
    }


def result_line(spec, report, trace, setup_samples):
    """The result object: correct, attempted, failed, metrics."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = dict(report["metrics"])
    if not trace:
        measured["setup_s"] = statistics.median(setup_samples)
    metrics, missing = {}, []
    for m in listed:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif trace:
            value = 0.0  # the layer does no work on this workload
        else:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(report["correct"]) and not missing and report["failed"] == 0
    return {
        "correct": correct,
        "attempted": max(1, int(report["attempted"])),
        "failed": int(report["failed"]) + len(missing),
        "metrics": metrics,
    }


def main(argv):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, workloads)
    started = time.monotonic()
    try:
        build()
        work = WORK_DIR / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        extra = ["--work-dir", str(work)]
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                left = RUN_DEADLINE_S - (time.monotonic() - started)
                out, launched = run_program(TIMED_EXE, args, extra + ["--setup-only"], left)
                setup_samples.append(setup_seconds(out, launched))
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        exe = TRACED_EXE if args.trace else TIMED_EXE
        if args.trace:
            extra += ["--trace-out", str(trace_file)]
        left = RUN_DEADLINE_S - (time.monotonic() - started)
        report, launched = run_program(exe, args, extra, left)
        setup_samples.append(setup_seconds(report, launched))
        env = environment(report, work)
        for leftover in work.glob("*"):
            leftover.unlink()
        work.rmdir()
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    result = result_line(spec, report, args.trace, setup_samples)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={int(args.trace)} "
          f"workers={report['workers']} cells={report['attempted']}")
    for check in report["checks"]:
        print(f"# check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(report.get("info", {}), sort_keys=True))
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": int(args.trace), "env": env, "checks": report["checks"],
                  "info": report.get("info", {}), "setup_samples_s": setup_samples,
                  "program_metrics": report["metrics"],
                  "result": result}
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
