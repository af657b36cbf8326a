"""trlink benchmark: run one workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload ber_two_user --seed 1 --seconds 10 --trace 0

Each repeat runs in a fresh interpreter (``child.py``), one at a time, so
set-up time and peak RSS are measured per repeat and the load is a single
Python process with one BLAS thread. Repeats continue until their job time
adds up to about ``--seconds``; a host-speed probe runs between items, and
the gated timings are scaled by it (hostspeed.py). With ``--trace 0`` the untraced repeats give the
end-to-end metrics; with ``--trace 1`` traced and untraced repeats alternate
and give the per-layer metrics and the tracing overhead. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with spans, goes to ``.perfbench_out/``. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from child import HERE, ROOT, SCENARIO_FILES
from hostspeed import REFERENCE_PROBE_S, at_reference_speed
from spans import is_count, unit_of

MIN_REPEATS = 3
# Enough items that the 95th percentile has at least 10 beyond it.
MIN_ITEMS = 200
# Past this much wall time no new repeat starts, so a run on a slow host
# still ends well inside its 180 s limit.
WALL_LIMIT_S = 110.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# What the generic end-to-end metrics are on each workload.
WORK_UNITS = {
    "ber_two_user": ("ber_bits_per_s", "bits/s", "cell"),
    "focus_map": ("focus_fields_per_s", "fields/s", "focus_call"),
    "sound_tb": ("sound_estimates_per_s", "estimates/s", "study_call"),
}


class ChildFailed(RuntimeError):
    pass


def run_child(workload, seed, mode, out_dir, args, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(out_dir)]
    if args.quick:
        cmd.append("--quick")
    if args.reference is not None:
        cmd += ["--reference", str(args.reference)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, **CHILD_ENV}, timeout=max(5.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} repeat timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} repeat exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed(f"{mode} repeat printed no result: {lines[-1][:200]!r}") from None


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolated between the two nearest items.

    BER cell times cluster by (scheme, D) with exactly half the cells on
    each side of a wide gap. The nearest-rank median is then the slowest
    fast cell, an extreme of its cluster that moves with every stray slow
    cell; interpolating takes the midpoint of the gap, which is steadier.
    """
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def item_seconds(repeat: dict) -> list[float]:
    """The repeat's item CPU times at the reference host speed.

    Each item is scaled by the mean of the probes run just before and just
    after it (see hostspeed.py).
    """
    probes = repeat["probe_s"]
    return [at_reference_speed(cpu, (probes[i] + probes[i + 1]) / 2)
            for i, cpu in enumerate(repeat["item_cpu_s"])]


def end_to_end(workload: str, plain: list[dict]) -> tuple[dict, list[str]]:
    """Timings are at the reference host speed; raw figures are printed beside them."""
    items = [t for r in plain for t in item_seconds(r)]
    work = sum(r["work"] for r in plain)
    metrics = {
        "work_per_s": work / sum(items),
        "item_ms_p50": 1e3 * percentile(items, 50),
        "item_ms_p95": 1e3 * percentile(items, 95),
        "setup_s": statistics.median(
            at_reference_speed(r["setup_s"], r["setup_probe_s"]) for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    alias, unit, item = WORK_UNITS[workload]
    cpu_items = [t for r in plain for t in r["item_cpu_s"]]
    wall_items = [t for r in plain for t in r["item_s"]]
    probes = [p for r in plain for p in r["probe_s"]]
    notes = [
        f"{alias} = {metrics['work_per_s']:.6g} {unit} (work_per_s, {len(plain)} repeats)",
        f"{item}_ms_p50 = {metrics['item_ms_p50']:.6g} ms (item_ms_p50, {len(items)} samples)",
        f"{item}_ms_p95 = {metrics['item_ms_p95']:.6g} ms (item_ms_p95, {len(items)} samples)",
        f"setup_s = {metrics['setup_s']:.6g} s (median of {len(plain)} fresh interpreters)",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MiB (median of {len(plain)} repeats)",
        f"(timings above are at the reference host speed, where the probe takes "
        f"{1e3 * REFERENCE_PROBE_S:g} ms; here it took {1e3 * statistics.median(probes):.4g} ms "
        f"median, {1e3 * min(probes):.4g}-{1e3 * max(probes):.4g} ms)",
        f"as measured, not gated: CPU {work / sum(cpu_items):.6g} {unit}, "
        f"{item}_ms_p50 {1e3 * percentile(cpu_items, 50):.6g} ms, "
        f"p95 {1e3 * percentile(cpu_items, 95):.6g} ms; wall {work / sum(wall_items):.6g} {unit}, "
        f"p50 {1e3 * percentile(wall_items, 50):.6g} ms, p95 {1e3 * percentile(wall_items, 95):.6g} ms, "
        f"setup_s {statistics.median(r['setup_s'] for r in plain):.6g} s",
    ]
    units = {"work_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p95": "ms",
             "setup_s": "s", "peak_rss_mb": "MiB"}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, notes


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str], list[str]]:
    first = traced[0]["layers"]
    problems = [
        f"traced repeat {i} counted {k}={r['layers'][k]!r}, repeat 0 counted {first[k]!r}"
        for i, r in enumerate(traced) for k in first
        if is_count(k) and r["layers"][k] != first[k]
    ]
    values = {
        k: first[k] if is_count(k) else statistics.median(r["layers"][k] for r in traced)
        for k in first
    }
    values["trace.overhead_frac"] = (
        statistics.median(sum(item_seconds(r)) for r in traced)
        / statistics.median(sum(item_seconds(r)) for r in plain) - 1.0
    )
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    notes = [f"{k} = {v['value'] if is_count(k) else format(v['value'], '.6g')} {v['unit']}"
             for k, v in metrics.items()]
    notes.append(f"(times: median of {len(traced)} traced repeats; counts equal in each)")
    return metrics, notes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIO_FILES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny jobs, for the self-test")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference directory (default: perfbench/reference)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    needed = [ROOT / "src" / "trlink" / "__init__.py",
              ROOT / "scenarios" / SCENARIO_FILES[args.workload]]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: trlink sources not found: {missing}", file=sys.stderr)
        return 2

    started = perf_counter()
    deadline = started + 170.0
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    modes = ("plain",) if args.trace == 0 else ("plain", "traced")
    try:
        measured = 0.0
        while True:
            step = 0.0
            for mode in modes:
                index = len(plain) + len(traced)
                result = run_child(args.workload, args.seed, mode,
                                   run_dir / f"repeat{index}-{mode}", args, deadline)
                (plain if mode == "plain" else traced).append(result)
                step += result["wall_s"]
                failures += result["failures"]
            measured += step
            items = sum(len(r["item_s"]) for r in plain)
            # Stop where the measured time is nearest to --seconds.
            enough = measured + step / 2 >= args.seconds and (args.trace or (
                len(plain) >= MIN_REPEATS and (args.quick or items >= MIN_ITEMS)))
            if enough or failures or perf_counter() - started > WALL_LIMIT_S:
                break
    except ChildFailed as exc:
        failures.append(str(exc))

    repeats = plain + traced
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    metrics: dict = {}
    notes: list[str] = []
    correct = not failures and bool(plain) and (args.trace == 0 or bool(traced))
    if correct:
        if args.trace:
            metrics, notes, problems = per_layer(plain, traced)
            failures += problems
            correct = not problems
        else:
            metrics, notes = end_to_end(args.workload, plain)
    if not correct:
        failed = max(failed, 1)
        attempted = max(attempted, failed)

    first = repeats[0] if repeats else {}
    env = (
        f"python {platform.python_version()}, numpy {first.get('numpy')}, "
        f"scipy {first.get('scipy')}, OPENBLAS_NUM_THREADS="
        f"{CHILD_ENV['OPENBLAS_NUM_THREADS']}, nproc {len(os.sched_getaffinity(0))}"
    )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced repeats, "
          f"{perf_counter() - started:.1f} s wall; {env}")
    for line in notes + [f"oracle failure: {f}" for f in failures[:20]]:
        print(line)
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} of {attempted} items)")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures,
        "repeats": repeats,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
