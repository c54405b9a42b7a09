"""Seed and argument parsing of run.py and of lazyeye_perfbench, result assembly.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load("run")
WORKLOADS = ["paper-repro", "conformance-matrix", "fault-hunt"]


class RunArgs(unittest.TestCase):
    def parse(self, *argv):
        return run.parse_args(list(argv), WORKLOADS)

    def rejects(self, *argv):
        with self.assertRaises(SystemExit):
            with open("/dev/null", "w") as devnull:
                saved, sys.stderr = sys.stderr, devnull
                try:
                    self.parse(*argv)
                finally:
                    sys.stderr = saved

    def test_standard_arguments(self):
        args = self.parse("--workload", "fault-hunt", "--seed", "7", "--seconds", "20", "--trace", "1")
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace), ("fault-hunt", 7, 20, True))
        args = self.parse("--workload", "paper-repro", "--seed", "0", "--seconds", "1", "--trace", "0")
        self.assertEqual((args.seed, args.trace), (0, False))

    def test_bad_seeds(self):
        for seed in ["-1", "1.5", "x", "", str(2**63)]:
            self.rejects("--workload", "paper-repro", "--seed", seed, "--seconds", "5", "--trace", "0")

    def test_bad_seconds_trace_workload(self):
        self.rejects("--workload", "paper-repro", "--seed", "1", "--seconds", "0", "--trace", "0")
        self.rejects("--workload", "paper-repro", "--seed", "1", "--seconds", "61", "--trace", "0")
        self.rejects("--workload", "paper-repro", "--seed", "1", "--seconds", "5", "--trace", "2")
        self.rejects("--workload", "nope", "--seed", "1", "--seconds", "5", "--trace", "0")
        self.rejects("--workload", "paper-repro", "--seconds", "5", "--trace", "0")


class ResultLine(unittest.TestCase):
    SPEC = {
        "end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "cells_per_s", "unit": "1/s"}],
        "per_layer": [{"name": "simnet.run_us", "unit": "us"}, {"name": "journal.load_ms", "unit": "ms"}],
    }

    def report(self, **metrics):
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    def test_untraced_takes_median_setup(self):
        out = run.result_line(self.SPEC, self.report(cells_per_s=5.0), False, [0.3, 0.1, 0.2])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(out["metrics"]["setup_s"], {"value": 0.2, "unit": "s"})
        self.assertTrue(out["correct"])

    def test_missing_end_to_end_metric_fails_the_run(self):
        out = run.result_line(self.SPEC, self.report(), False, [0.1])
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)

    def test_setup_time_is_scaled_to_reference_speed(self):
        report = {"setup_end_ns": 3_000_000_000, "setup_scale": 0.5}
        self.assertEqual(run.setup_seconds(report, 1_000_000_000), 1.0)

    def test_idle_layer_reports_zero(self):
        out = run.result_line(self.SPEC, self.report(**{"simnet.run_us": 3.5}), True, [])
        self.assertEqual(out["metrics"]["journal.load_ms"]["value"], 0.0)
        self.assertEqual(out["metrics"]["simnet.run_us"]["value"], 3.5)


class ProgramArgs(unittest.TestCase):
    """lazyeye_perfbench's own parser: strict, exit code 2 on any bad argument."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.exe = str(run.BUILD_DIR / run.TIMED_EXE)

    def status(self, *argv):
        return subprocess.run([self.exe, *argv], capture_output=True).returncode

    def test_rejections(self):
        base = ["--workload", "paper-repro", "--seed", "1", "--seconds", "1", "--trace", "0"]
        self.assertEqual(self.status(*base[:-1]), 2)  # missing value
        self.assertEqual(self.status(*base[2:]), 2)  # no workload
        for flag, bad in [("--seed", "-3"), ("--seed", "12x"), ("--seconds", "0"),
                          ("--seconds", "601"), ("--trace", "yes")]:
            argv = list(base)
            argv[argv.index(flag) + 1] = bad
            self.assertEqual(self.status(*argv), 2, (flag, bad))
        self.assertEqual(self.status(*base, "--bogus", "1"), 2)
        argv = list(base)
        argv[1] = "no-such-workload"
        self.assertEqual(self.status(*argv), 2)

    def test_trace_needs_the_traced_executable(self):
        self.assertEqual(self.status("--workload", "paper-repro", "--seed", "1",
                                     "--seconds", "1", "--trace", "1"), 2)


if __name__ == "__main__":
    unittest.main()
