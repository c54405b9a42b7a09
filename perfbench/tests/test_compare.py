"""compare.py verdicts on synthetic run sets.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("compare", PERFBENCH / "compare.py")
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)


def runs(values):
    return list(enumerate(values, start=1))  # (seed, value)


class Verdicts(unittest.TestCase):
    PARENT = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])

    def test_clear_gain_is_improved(self):
        change = runs([120, 121, 119, 120, 122, 118, 120, 121, 119, 120])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.1), "improved")
        self.assertEqual(compare.verdict(self.PARENT, change, "lower", 0.1), "worse")

    def test_noise_is_unchanged(self):
        change = runs([100, 99, 101, 100, 98, 102, 100, 99, 101, 100])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.1), "unchanged")

    def test_gain_needs_nine_in_ten_pair_wins(self):
        # Medians move a lot, but the change loses 2 of 10 seed-paired runs.
        change = runs([120, 121, 119, 120, 122, 118, 120, 121, 90, 90])
        self.assertNotEqual(compare.verdict(self.PARENT, change, "higher", 0.5), "improved")

    def test_gain_needs_medians_apart_by_more_than_parent_spread(self):
        wide = runs([80, 120, 90, 110, 85, 115, 95, 105, 100, 100])
        change = [(s, v + 1) for s, v in wide]  # wins every pair, by one unit
        self.assertNotEqual(compare.verdict(wide, change, "higher", 0.5), "improved")

    def test_small_regression_within_bound_is_unchanged(self):
        change = runs([95, 96, 94, 95, 97, 93, 95, 96, 94, 95])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.1), "unchanged")
        self.assertEqual(compare.verdict(self.PARENT, change, "higher", 0.03), "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = runs([60, 140, 70, 130, 80, 120, 90, 110, 100, 100])
        self.assertEqual(compare.verdict(self.PARENT, noisy, "higher", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better_is_unchanged(self):
        change = runs([200, 300, 210, 290, 220, 280, 230, 270, 240, 260])
        # Lower is better: every change run is worse, so the rule does not apply.
        self.assertEqual(compare.verdict(self.PARENT, change, "lower", 0.1), "unresolved")
        faster = [(s, v / 10) for s, v in change]
        self.assertIn(compare.verdict(self.PARENT, faster, "lower", 0.1), ("improved", "unchanged"))

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4]), 1.0)


if __name__ == "__main__":
    unittest.main()
