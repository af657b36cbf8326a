"""Compare two checkouts on the perfbench workloads and write a BENCH_<n>.json record.

Usage (from any directory; both checkouts need ``perfbench/``, ``src/`` and
``BENCHMARK.json``):

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_1.json

Make each side a fresh clone of its commit (``git clone``, then ``git
checkout <rev>``) just before the run, never an older checkout reused: a
reused clone of unchanged code has read ``setup_s`` about 1.18 times its
fresh clone's, which passes for a change in the code. Put the two clones
at resolved paths of equal length (``../p`` and ``../c``, say): one source
tree has read 325 or 565 minor page faults per two-trial sounding study,
depending only on where its checkout lies, and ``sound_tb``'s time moves
with them. Paths of different lengths are refused before any run, and
the record keeps both.

Every workload ``BENCHMARK.json`` lists is measured (or only those named
with ``--workload``) over ``PAIRS`` pairs. Pair ``k`` runs
``perfbench/run.py --seed <first-seed + k> --seconds <run_seconds> --trace
0`` once in each checkout, one run at a time, with ``run_seconds`` taken
from ``BENCHMARK.json`` (both checkouts must agree on it). The side that
runs first alternates from pair to pair, so drift of the host hits both
sides alike. The record keeps each checkout's git revision and whether its
tree had uncommitted changes, the seeds, the environment line each run
printed (Python, numpy, BLAS threads, CPUs), every run's end-to-end
metrics with its ``attempted`` and ``failed`` item counts, each side's
failed share per workload (failed over attempted items, summed over its
runs; a run that printed no result counts as one failed item of one) and,
per metric, the median and quartiles of each side, the median
ratio (change / parent), the number of pairs the change won in the
metric's better direction and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``"gain"``: the change won at least 9 of every 10 pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range;
* ``"regression"``: the change's median is worse than the parent's by more
  than ``bound`` times the parent's median;
* ``"within bound"``: anything else.

A run that fails its oracle is kept with ``correct: false`` and left out of
the summaries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def benchmark_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def revision(checkout: Path) -> dict:
    """The checkout's git revision and whether its tree differs from it."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], capture_output=True, text=True, cwd=checkout)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return {"revision": None, "uncommitted_changes": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"revision": head.stdout.strip(), "uncommitted_changes": bool(status.stdout.strip())}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    # run.py's header line reads "perfbench <workload> seed=...: ...; <environment>"
    header = [line for line in lines if line.startswith(f"perfbench {workload} ")]
    environment = header[0].split("; ", 1)[-1] if header else None
    return {
        "seed": seed,
        "correct": proc.returncode == 0 and bool(result.get("correct")),
        "attempted": int(result.get("attempted", 1)),
        "failed": int(result.get("failed", 1)),
        "environment": environment,
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }


def failed_share(runs: list[dict]) -> dict:
    """One side's failed and attempted items summed over its runs, and their ratio."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"attempted": attempted, "failed": failed,
            "share": failed / attempted if attempted else 0.0}


def verdict(parent_median: float, change_median: float, parent_quartiles: list[float],
            wins: int, pairs: int, direction: str, bound: float) -> str:
    """``"gain"``, ``"regression"`` or ``"within bound"`` (see the module docstring)."""
    improvement = change_median - parent_median
    if direction == "lower":
        improvement = -improvement
    if 10 * wins >= 9 * pairs and improvement > parent_quartiles[1] - parent_quartiles[0]:
        return "gain"
    if improvement < -bound * abs(parent_median):
        return "regression"
    return "within bound"


def summarise(parent: list[dict], change: list[dict], gated: dict[str, dict]) -> dict:
    """Per gated metric (name -> its ``BENCHMARK.json`` entry), both sides' medians
    and quartiles over the pairs where both runs were correct, and a verdict."""
    pairs = [(p["metrics"], c["metrics"]) for p, c in zip(parent, change)
             if p["correct"] and c["correct"]]
    summary = {"pairs": len(pairs)}
    for name, metric in gated.items():
        direction = metric["better"]
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        if not old:
            continue
        wins = sum((n > o) if direction == "higher" else (n < o) for o, n in zip(old, new))
        quartiles = {side: statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else [values[0]] * 3
                     for side, values in (("parent", old), ("change", new))}
        old_median, new_median = statistics.median(old), statistics.median(new)
        parent_quartiles = [quartiles["parent"][0], quartiles["parent"][2]]
        summary[name] = {
            "better": direction,
            "parent_median": old_median,
            "change_median": new_median,
            "parent_quartiles": parent_quartiles,
            "change_quartiles": [quartiles["change"][0], quartiles["change"][2]],
            "ratio_change_over_parent": new_median / old_median,
            "change_wins": wins,
            "bound": metric["bound"],
            "verdict": verdict(old_median, new_median, parent_quartiles, wins, len(pairs),
                               direction, metric["bound"]),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append",
                        help="measure only this workload (repeatable; default: all)")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    if len(str(args.parent)) != len(str(args.change)):
        parser.error(f"the checkouts' paths differ in length: {args.parent} has "
                     f"{len(str(args.parent))} characters, {args.change} has "
                     f"{len(str(args.change))}")

    spec = benchmark_spec(args.change)
    seconds = spec["run_seconds"]
    if benchmark_spec(args.parent)["run_seconds"] != seconds:
        parser.error("the two checkouts' BENCHMARK.json set different run_seconds")
    gated = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [args.first_seed + k for k in range(PAIRS)]

    record = {
        "description": "Parent vs change on the perfbench workloads: per gated end-to-end "
                       "metric, each side's median and quartiles over alternating pairs, the "
                       "median ratio, the pairs the change won and a verdict against the "
                       "metric's bound. Written by "
                       "tools/bench_pairs.py; every run is kept under 'runs'.",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "parent": {"path": str(args.parent), **revision(args.parent)},
        "change": {"path": str(args.change), **revision(args.change)},
        "seeds": seeds,
        "environments": {},
        "workloads": {},
    }
    runs_by_side = {"parent": [], "change": []}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            for side in ("parent", "change")[:: 1 if k % 2 == 0 else -1]:
                runs[side].append(run_once(getattr(args, side), workload, seed, seconds))
            print(f"{workload} pair {k + 1}/{PAIRS} done", file=sys.stderr)
        record["workloads"][workload] = {
            "summary": summarise(runs["parent"], runs["change"], gated),
            "failed_share": {side: failed_share(side_runs) for side, side_runs in runs.items()},
            "runs": runs,
        }
        for side in runs:
            runs_by_side[side] += runs[side]
    record["environments"] = {
        side: sorted({r["environment"] for r in runs if r["environment"]})
        for side, runs in runs_by_side.items()
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
