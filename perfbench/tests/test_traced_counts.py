"""Per-layer count metrics repeat exactly across two traced runs.

Counts (events, packets, allocations, bytes, messages) come from the mirror
cells and the journal probes, which are deterministic for a seed; only
times may differ between the runs. Builds the benchmark on first use.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
# Shares whose numerator and denominator are both counts.
COUNT_SHARES = {"dns.decode_reject_share", "transport.established_share"}


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed for {workload}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TracedCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        cls.counts = [m["name"] for m in spec["per_layer"]
                      if m["unit"] in ("count", "B") or m["name"] in COUNT_SHARES]
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_counts_repeat(self):
        for workload in self.workloads:
            first, second = traced_run(workload, 3), traced_run(workload, 3)
            self.assertTrue(first["correct"] and second["correct"], workload)
            for name in self.counts:
                self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"],
                                 f"{workload}: {name}")
            # The mirror cells ran, so their layers reported work.
            self.assertGreater(first["metrics"]["trace.mirror_cells"]["value"], 0, workload)
            self.assertGreater(first["metrics"]["simnet.events_per_cell"]["value"], 0, workload)


if __name__ == "__main__":
    unittest.main()
