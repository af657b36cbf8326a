"""Fast self-test of the benchmark: tiny jobs, every metric, every oracle path.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE_SEEDS = {"ber_two_user": 20260808, "focus_map": 7, "sound_tb": 7}
HELD_OUT_SEED = 5


def bench(workload, seed, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace), "--quick", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.cache
def cached(workload, seed, trace):
    """One run per argument set, shared by the tests that read it."""
    return bench(workload, seed, trace)


@pytest.mark.parametrize("workload", sorted(REFERENCE_SEEDS))
def test_end_to_end_metrics_print_with_units_at_the_reference_seed(workload):
    proc = cached(workload, REFERENCE_SEEDS[workload], 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac = 0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", sorted(REFERENCE_SEEDS))
def test_per_layer_metrics_print_with_units_at_a_held_out_seed(workload):
    proc = cached(workload, HELD_OUT_SEED, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"{name} = " in proc.stdout


def test_traced_counters_repeat_exactly():
    first = result_of(cached("ber_two_user", HELD_OUT_SEED, 1))["metrics"]
    second = result_of(bench("ber_two_user", HELD_OUT_SEED, 1))["metrics"]
    counts = [k for k, v in first.items() if v["unit"] in ("count", "samples")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["harness.run_ber_point.calls"]["value"] == 4
    assert first["modem.read_ratio"]["value"] > 0


# (workload, reference file, a row the quick job checks)
@pytest.mark.parametrize("workload, path, row", [
    ("ber_two_user", "ber/ber_rask_D5.csv", 1),
    ("focus_map", "focus/focus_single_t0.csv", -1),
    ("sound_tb", "sound/sounding_trials2.csv", 2),
])
def test_a_corrupted_reference_row_fails_the_run(tmp_path, workload, path, row):
    reference = tmp_path / "reference"
    shutil.copytree(HERE / "reference", reference)
    target = reference / path
    lines = target.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split(",")
    fields[-1] = repr(2 * float(fields[-1]))
    lines[row] = ",".join(fields)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")

    proc = bench(workload, REFERENCE_SEEDS[workload], 0, "--reference", str(reference))
    result = result_of(proc)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "failed_frac = 0 " not in proc.stdout


def test_references_equal_the_committed_results():
    for kind in ("ber", "focus"):
        committed = ROOT / "results" / kind
        if not committed.is_dir():
            pytest.skip("committed results are not in this checkout")
        names = sorted(p.name for p in committed.glob("*.csv"))
        assert names == sorted(p.name for p in (HERE / "reference" / kind).glob("*.csv"))
        for name in names:
            assert (committed / name).read_bytes() == (HERE / "reference" / kind / name).read_bytes()


def test_without_trlink_sources_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("ber_two_user", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
