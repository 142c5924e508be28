import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

#: Ten steady parent runs: median 1.0, interquartile range 0.02.
PARENT = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02]


class TestVerdict:
    def test_a_clear_gain(self):
        change = [x - 0.2 for x in PARENT]
        assert ab_pairs.verdict(PARENT, change, "lower", 0.25) == "gain, within bound"

    def test_eight_pairs_won_is_no_gain(self):
        change = [x - 0.2 for x in PARENT[:8]] + [x + 0.01 for x in PARENT[8:]]
        assert ab_pairs.verdict(PARENT, change, "lower", 0.25) == "no gain, within bound"

    def test_a_gap_inside_the_parents_iqr_is_no_gain(self):
        # every pair won, but the medians differ by 0.01, half the IQR
        change = [x - 0.01 for x in PARENT]
        assert ab_pairs.verdict(PARENT, change, "lower", 0.25) == "no gain, within bound"

    @pytest.mark.parametrize("worse, limit", [(0.24, "within bound"), (0.26, "outside bound")])
    def test_the_bound_is_relative_to_the_parents_median(self, worse, limit):
        change = [x + worse for x in PARENT]
        assert ab_pairs.verdict(PARENT, change, "lower", 0.25) == f"no gain, {limit}"

    def test_higher_is_better(self):
        change = [x + 0.2 for x in PARENT]
        assert ab_pairs.verdict(PARENT, change, "higher", 0.25) == "gain, within bound"
        assert ab_pairs.verdict(change, PARENT, "higher", 0.1) == "no gain, outside bound"

    def test_a_parent_noisier_than_the_bound_is_unresolved(self):
        parent = [0.5, 0.7, 0.9, 1.0, 1.0, 1.0, 1.0, 1.1, 1.3, 1.5]
        assert ab_pairs.verdict(parent, parent, "lower", 0.1) == "no gain, unresolved"
