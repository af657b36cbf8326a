"""The verdicts tools/bench_pairs.py writes for each gated metric, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"work_per_s": {"name": "work_per_s", "better": "higher", "bound": 0.25}}
LATENCY = {"item_ms_p50": {"name": "item_ms_p50", "better": "lower", "bound": 0.25}}


def runs(name, values, correct=True):
    return [{"correct": correct, "metrics": {name: v}} for v in values]


def summary_of(gated, parent_values, change_values):
    (name,) = gated
    summary = bench_pairs.summarise(runs(name, parent_values), runs(name, change_values), gated)
    return summary[name]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class TestVerdict:
    def test_ten_wins_far_outside_the_spread_is_a_gain(self):
        result = summary_of(RATE, PARENT, [v * 1.9 for v in PARENT])
        assert result["change_wins"] == 10
        assert result["verdict"] == "gain"

    def test_nine_wins_is_enough(self):
        change = [v * 1.9 for v in PARENT]
        change[3] = 50.0
        result = summary_of(RATE, PARENT, change)
        assert result["change_wins"] == 9
        assert result["verdict"] == "gain"

    def test_eight_wins_is_not_a_gain(self):
        change = [v * 1.9 for v in PARENT]
        change[3] = change[7] = 50.0
        assert summary_of(RATE, PARENT, change)["verdict"] == "within bound"

    def test_a_median_shift_inside_the_parent_spread_is_not_a_gain(self):
        # every pair won, by 0.3 against a parent interquartile range of 0.35
        result = summary_of(RATE, PARENT, [v + 0.3 for v in PARENT])
        assert result["change_wins"] == 10
        assert result["parent_quartiles"][1] - result["parent_quartiles"][0] > 0.3
        assert result["verdict"] == "within bound"

    def test_worse_by_more_than_the_bound_is_a_regression(self):
        assert summary_of(RATE, PARENT, [v * 0.7 for v in PARENT])["verdict"] == "regression"

    def test_worse_inside_the_bound_is_within_bound(self):
        assert summary_of(RATE, PARENT, [v * 0.8 for v in PARENT])["verdict"] == "within bound"

    @pytest.mark.parametrize(
        "factor, expected", [(0.5, "gain"), (1.2, "within bound"), (1.3, "regression")]
    )
    def test_lower_is_better_metrics_read_the_other_way(self, factor, expected):
        result = summary_of(LATENCY, PARENT, [v * factor for v in PARENT])
        assert result["verdict"] == expected
        assert result["bound"] == 0.25

    def test_failed_runs_are_left_out_of_the_pairs(self):
        parent = runs("work_per_s", PARENT)
        change = runs("work_per_s", [v * 1.9 for v in PARENT])
        change[0]["correct"] = False
        summary = bench_pairs.summarise(parent, change, RATE)
        assert summary["pairs"] == 9
        assert summary["work_per_s"]["verdict"] == "gain"
