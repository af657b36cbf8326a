"""The verdicts tools/bench_pairs.py writes for each gated metric, on synthetic runs."""

import importlib.util
import json
import subprocess
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


class TestFailures:
    def run_with_stdout(self, monkeypatch, stdout, returncode=0):
        def fake_run(argv, **kwargs):
            return subprocess.CompletedProcess(argv, returncode, stdout=stdout, stderr="")

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        return bench_pairs.run_once(Path("."), "ber_two_user", 101, 25)

    def test_each_run_records_its_attempted_and_failed_items(self, monkeypatch):
        result = {"correct": False, "attempted": 40, "failed": 3,
                  "metrics": {"work_per_s": {"value": 5.0}}}
        run = self.run_with_stdout(monkeypatch, "perfbench ber_two_user seed=101: x; env\n"
                                   + json.dumps(result) + "\n", returncode=1)
        assert (run["attempted"], run["failed"], run["correct"]) == (40, 3, False)
        assert run["metrics"] == {"work_per_s": 5.0}

    def test_a_run_without_a_result_is_one_failed_item(self, monkeypatch):
        run = self.run_with_stdout(monkeypatch, "Traceback (most recent call last):\n", 1)
        assert (run["attempted"], run["failed"], run["correct"]) == (1, 1, False)

    def test_failed_share_sums_over_a_sides_runs(self):
        side = [{"attempted": 30, "failed": 0}, {"attempted": 10, "failed": 2},
                {"attempted": 1, "failed": 1}]
        assert bench_pairs.failed_share(side) == {"attempted": 41, "failed": 3, "share": 3 / 41}
        assert bench_pairs.failed_share([])["share"] == 0.0


class TestCheckoutPaths:
    @staticmethod
    def checkouts(tmp_path, parent_name, change_name):
        spec = {"run_seconds": 1, "workloads": [{"name": "focus_map"}],
                "end_to_end": list(RATE.values())}
        sides = []
        for name in (parent_name, change_name):
            checkout = tmp_path / name
            checkout.mkdir()
            (checkout / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
            sides.append(checkout)
        return sides

    def test_paths_of_different_lengths_are_refused_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("no run may start")

        monkeypatch.setattr(bench_pairs, "run_once", never)
        parent, change = self.checkouts(tmp_path, "p", "change")
        out = tmp_path / "BENCH.json"
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(["--parent", str(parent), "--change", str(change), "--out", str(out)])
        assert info.value.code == 2
        assert "paths differ in length" in capsys.readouterr().err
        assert not out.exists()

    def test_the_record_keeps_both_resolved_paths(self, tmp_path, monkeypatch):
        def fake_run(checkout, workload, seed, seconds):
            return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                    "environment": "env", "metrics": {"work_per_s": 1.0}}

        monkeypatch.setattr(bench_pairs, "run_once", fake_run)
        parent, change = self.checkouts(tmp_path, "p", "c")
        out = tmp_path / "BENCH.json"
        monkeypatch.chdir(tmp_path)
        assert bench_pairs.main(["--parent", "p", "--change", "c", "--out", str(out)]) == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["parent"]["path"] == str(parent.resolve())
        assert record["change"]["path"] == str(change.resolve())
